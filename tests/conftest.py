import re

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vdpfit.model import State, VdpParams, simulate

# Every property test draws the same examples on every run and writes no
# example database; a test's own @settings still sets its max_examples.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


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


def dense_state_jacobian(sub):
    """dG/dx as a dense matrix, from the (N-1, b, b) subdiagonal blocks that
    residual_jacobian_x returns; every diagonal block is the identity."""
    n, b = sub.shape[0] + 1, sub.shape[1]
    dense = np.eye(n * b)
    for k in range(n - 1):
        dense[(k + 1) * b : (k + 2) * b, k * b : (k + 1) * b] = sub[k]
    return dense


def simulated_obs(params, s0, n, dt, noise=0.0, seed=0):
    """Simulate and return (trajectory, observations of x1 + optional noise)."""
    traj = simulate(params, s0, n, dt)
    x1 = traj.x1
    if noise:
        x1 = x1 + np.random.default_rng(seed).normal(0.0, noise, x1.shape)
    return traj, x1


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


# Tokens csv_text(variants=True) may put in place of a number.
NON_FINITE_TOKENS = ("nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e999")
_DRESSINGS = st.sampled_from(["quoted", "underscored", "non-finite"])


@st.composite
def csv_text(draw, rows, header=None, width=None, variants=False):
    """CSV text of `rows` (lists of tokens) dressed as load_csv accepts it: an
    optional header of `width` (default len(rows[0])) non-numeric names,
    forced or forbidden by `header`; blank or whitespace-only lines anywhere;
    and whitespace around every token. Returns (text, lines), lines[i] being
    the 1-based file line that holds rows[i].

    With `variants`, lines may end in CRLF and up to three data tokens are
    dressed: quoted (with their padding inside the quotes), given a `1_000`
    style underscore between two digits, or replaced by a non-finite token."""
    if header is None:
        header = draw(st.booleans())
    eol = draw(st.sampled_from(["\n", "\r\n"])) if variants else "\n"
    cells = [(i, j) for i, row in enumerate(rows) for j in range(len(row))]
    chosen = draw(st.lists(st.sampled_from(cells), max_size=3, unique=True)) if variants else []
    dress = {cell: draw(_DRESSINGS) for cell in chosen}
    records = [list(row) for row in rows]
    for (i, j), kind in dress.items():
        if kind == "underscored":
            records[i][j] = re.sub(r"(\d)(\d)", r"\1_\2", records[i][j], count=1)
        elif kind == "non-finite":
            records[i][j] = draw(st.sampled_from(NON_FINITE_TOKENS))
    if header:
        records.insert(0, [draw(_NAMES) for _ in range(width or len(rows[0]))])
    out, lines = [], []
    for i, record in enumerate(records, start=-1 if header else 0):
        out += draw(_BLANK_LINES)
        padded = [draw(_PADS) + tok + draw(_PADS) for tok in record]
        out.append(",".join(f'"{tok}"' if dress.get((i, j)) == "quoted" else tok
                            for j, tok in enumerate(padded)))
        lines.append(len(out))
    out += draw(_BLANK_LINES)
    return eol.join(out) + eol, lines[1:] if header else lines
