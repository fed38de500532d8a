import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vdpfit.model import ObservationSet, State, VdpParams, simulate


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_params(rng, m, nonlinear=True):
    a1 = rng.uniform(0.5, 2.5, m) if nonlinear else np.zeros(m)
    alpha = np.column_stack([a1, rng.uniform(-1.5, 1.5, m)])
    coupling = rng.uniform(-0.5, 0.5, (m, m))
    return VdpParams(alpha=alpha, coupling=coupling)


def random_state(rng, m, scale=1.0):
    return State(x1=rng.normal(0, scale, m), x2=rng.normal(0, scale, m))


def simulated_obs(params, s0, n, dt, noise=0.0, seed=0):
    """Simulate and return (trajectory, observations of x1 + optional noise)."""
    traj = simulate(params, s0, n, dt)
    x1 = traj.x1
    if noise:
        x1 = x1 + np.random.default_rng(seed).normal(0.0, noise, x1.shape)
    return traj, ObservationSet(x1)


# Finite doubles at the edges of the range: signed zeros, the smallest
# subnormal and normal, the largest double, and values with 17-digit reprs.
EXTREME_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  -2.2250738585072014e-308, 1.7976931348623157e308,
                  -1.7976931348623157e308, 0.1, 1 / 3, 1e16, -123456789.0)


def finite_matrices(max_rows=5, max_cols=4):
    """Finite float64 (rows, cols) arrays that draw EXTREME_FLOATS often."""
    elements = st.one_of(st.sampled_from(EXTREME_FLOATS),
                         st.floats(allow_nan=False, allow_infinity=False))
    shapes = st.tuples(st.integers(1, max_rows), st.integers(1, max_cols))
    return hnp.arrays(np.float64, shapes, elements=elements)


# Header names use no letter of "nan", "inf" or "infinity", so none parses as a number.
_NAMES = st.text(alphabet="bcdghjklmopqrsuvwxz_", min_size=1, max_size=5)
_PADS = st.sampled_from(["", " ", "  ", "\t", " \t"])
_BLANK_LINES = st.lists(st.sampled_from(["", " ", "\t  "]), max_size=2)


@st.composite
def csv_text(draw, rows, header=None, width=None):
    """CSV text of `rows` (lists of tokens) dressed as load_csv accepts it: an
    optional header of `width` (default len(rows[0])) non-numeric names,
    forced or forbidden by `header`; blank or whitespace-only lines anywhere;
    and whitespace around every token. Returns (text, lines), lines[i] being
    the 1-based file line that holds rows[i]."""
    if header is None:
        header = draw(st.booleans())
    records = list(rows)
    if header:
        records.insert(0, [draw(_NAMES) for _ in range(width or len(rows[0]))])
    out, lines = [], []
    for record in records:
        out += draw(_BLANK_LINES)
        out.append(",".join(draw(_PADS) + tok + draw(_PADS) for tok in record))
        lines.append(len(out))
    out += draw(_BLANK_LINES)
    return "\n".join(out) + "\n", lines[1:] if header else lines
