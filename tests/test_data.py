from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import NON_FINITE_TOKENS, csv_text, finite_matrices
from vdpfit import data
from vdpfit.data import (
    CsvFormatError,
    Edge,
    SvdComponents,
    connectivity_projection,
    load_components,
    load_csv,
    normalize_components,
    save_components,
    save_csv,
    save_edges,
    split_segments,
    svd_components,
)


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2,3,4\n5,6,7,8\n9,10,11,12\n")
        values = load_csv(p)
        assert values.shape == (3, 4)
        npt.assert_array_equal(values[1], [5, 6, 7, 8])

    def test_non_numeric_cites_coordinates(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2,3\n4,5,oops\n")
        with pytest.raises(CsvFormatError, match=r"row 2.*column 3"):
            load_csv(p)

    def test_ragged_row_cites_line(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2,3\n4,5\n")
        with pytest.raises(CsvFormatError, match=r"^line 2 \(row 2\): expected 3 fields, got 2$"):
            load_csv(p)

    def test_header_and_blank_lines(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("cell_a,cell_b\n\n1,2\n3,4\n\n")
        values = load_csv(p)
        npt.assert_array_equal(values, [[1, 2], [3, 4]])

    def test_mixed_first_row_is_data_not_a_header(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2,oops\n4,5,6\n7,8,9\n")
        with pytest.raises(CsvFormatError, match=r"'oops' at row 1, column 3$"):
            load_csv(p)

    def test_non_finite_value_cites_coordinates(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("t,u\n1,2\n3,nan\n")
        with pytest.raises(CsvFormatError, match=r"^non-finite value nan at row 2, column 2$"):
            load_csv(p)

    def test_header_only_has_no_data_rows(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("cell_a,cell_b\n\n")
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_csv(p)

    def test_rows_as_time_transposes(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2\n3,4\n5,6\n")
        values = load_csv(p, layout="rows=time")
        assert values.shape == (2, 3)
        npt.assert_array_equal(values[0], [1, 3, 5])

    def test_round_trip_full_precision(self, tmp_path, rng):
        values = rng.normal(size=(4, 7)) * np.pi
        p = tmp_path / "rt.csv"
        save_csv(values, p)
        back = load_csv(p)
        npt.assert_array_equal(back, values)

    def test_save_bytes_match_per_value_format(self, tmp_path, rng):
        specials = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-300, -1e300,
                    1.7976931348623157e308, np.inf, -np.inf, 0.1, 1e16, 123456789.0]
        values = np.vstack([np.reshape(specials, (4, 3)), rng.normal(size=(6, 3)) * 1e3])
        p = tmp_path / "fmt.csv"
        save_csv(values, p)
        want = "".join(
            ",".join(format(v, ".17g") for v in row) + "\n" for row in values
        )
        assert p.read_bytes() == want.encode()


NON_NUMERIC = ["oops", "1.2.3", "0x10", "1e", "--1", "1 2"]


class TestCsvContract:
    """load_csv over generated documents: exact round trips, located errors."""

    @given(x=finite_matrices(), doc=st.data())
    @settings(derandomize=True, max_examples=120, deadline=None)
    def test_save_load_round_trip_is_bit_exact(self, tmp_path_factory, x, doc):
        p = tmp_path_factory.mktemp("csv") / "x.csv"
        save_csv(x, p)
        assert load_csv(p).tobytes() == x.tobytes()
        rows = [line.split(",") for line in p.read_text().splitlines()]
        text, _ = doc.draw(csv_text(rows))
        p.write_text(text)
        back = load_csv(p)
        assert back.dtype == np.float64 and back.shape == x.shape
        assert back.tobytes() == x.tobytes()
        assert load_csv(p, layout="rows=time").tobytes() == x.T.tobytes()

    @given(x=finite_matrices(), fault=st.sampled_from(["ragged", "non-numeric", "non-finite"]),
           header=st.booleans(), layout=st.sampled_from(["rows=space", "rows=time"]),
           doc=st.data())
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_faults_name_their_location(self, tmp_path_factory, x, fault, header, layout, doc):
        rows = [[format(v, ".17g") for v in row] for row in x]
        n, w = x.shape
        if fault == "ragged":
            assume(header or n > 1)  # without a header the first row sets the width
            i = doc.draw(st.integers(0 if header else 1, n - 1))
            rows[i] = rows[i][:-1] if w > 1 and doc.draw(st.booleans()) else rows[i] + ["0"]
        else:
            i, j = doc.draw(st.integers(0, n - 1)), doc.draw(st.integers(0, w - 1))
            tokens = NON_FINITE_TOKENS if fault == "non-finite" else NON_NUMERIC + [""] * (w > 1)
            rows[i][j] = doc.draw(st.sampled_from(tokens))
            # a lone non-numeric first row would be a header, not an error
            assume(fault == "non-finite" or header or i > 0 or w > 1)
        text, lines = doc.draw(csv_text(rows, header=header, width=w))
        p = tmp_path_factory.mktemp("csv") / "x.csv"
        p.write_text(text)
        if fault == "ragged":
            where = rf"^line {lines[i]} \(row {i + 1}\): expected {w} fields, got {len(rows[i])}$"
        else:
            where = rf"^{fault} value .* at row {i + 1}, column {j + 1}$"
        with pytest.raises(CsvFormatError, match=where):
            load_csv(p, layout=layout)


def _load_outcome(path, layout):
    """load_csv's array (dtype, shape, bytes) or its CsvFormatError text."""
    try:
        values = load_csv(path, layout=layout)
    except CsvFormatError as exc:
        return str(exc)
    return values.dtype, values.shape, values.tobytes()


class TestFastParser:
    """np.loadtxt must read exactly what the token-by-token parser reads."""

    @given(x=finite_matrices(), header=st.booleans(),
           layout=st.sampled_from(["rows=space", "rows=time"]), doc=st.data())
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_matches_the_exact_parser(self, tmp_path_factory, x, header, layout, doc):
        rows = [[format(v, ".17g") for v in row] for row in x]
        n, w = x.shape
        if doc.draw(st.booleans()):  # a ragged row
            i = doc.draw(st.integers(0, n - 1))
            rows[i] = rows[i][:-1] if w > 1 and doc.draw(st.booleans()) else rows[i] + ["0"]
        width = doc.draw(st.sampled_from([w, w + 1]))  # a header may disagree with the data
        text, _ = doc.draw(csv_text(rows, header=header, width=width, variants=True))
        p = tmp_path_factory.mktemp("csv") / "x.csv"
        p.write_bytes(text.encode())
        fast = _load_outcome(p, layout)
        with mock.patch.object(data, "_loadtxt", return_value=None):
            assert _load_outcome(p, layout) == fast

    @pytest.mark.parametrize("text", [
        "1,2\n3,4\n",
        "a,b\r\n1,2\r\n3,4\r\n",
        "\n\n a , b \n\n1, 2\n\n3 ,4\n\n",
        "nan,1e400\n3,4\n",
    ])
    def test_plain_files_take_the_fast_path(self, tmp_path, text):
        p = tmp_path / "a.csv"
        p.write_bytes(text.encode())
        assert data._loadtxt(p) is not None

    @pytest.mark.parametrize("text", [
        '"1",2\n3,4\n',  # quotes
        "1_000,2\n3,4\n",  # underscores
        "1,2\n3\n",  # a ragged row
        "a,b,c\n1,2\n3,4\n",  # a header wider than the data
        "1,2\n \n3,4\n",  # a whitespace-only line
        "a,b\n\n",  # no data rows
        "",
    ])
    def test_other_files_fall_back(self, tmp_path, text):
        p = tmp_path / "a.csv"
        p.write_bytes(text.encode())
        assert data._loadtxt(p) is None


class TestSvdComponents:
    def test_rank_one_recovery(self, rng):
        u = rng.normal(size=8)
        v = rng.normal(size=30)
        data = np.outer(u, v)
        comps = svd_components(data, 1)
        # correlation with v is exact up to sign on the centered matrix
        vc = v - v.mean()
        c = np.corrcoef(comps.temporal[0], vc)[0, 1]
        assert abs(abs(c) - 1.0) < 1e-10

    def test_temporal_rows_carry_singular_scale(self, rng):
        data = rng.normal(size=(10, 40))
        comps = svd_components(data, 3)
        for i in range(3):
            npt.assert_allclose(
                np.linalg.norm(comps.temporal[i]), comps.singular_values[i], rtol=1e-12
            )

    def test_temporal_orthogonality(self, rng):
        data = rng.normal(size=(12, 50))
        comps = svd_components(data, 4)
        gram = comps.temporal @ comps.temporal.T
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-10

    def test_reconstruction_matches_dense_oracle(self, rng):
        values = rng.normal(size=(20, 30))
        comps = svd_components(values, 5)
        centered = values - values.mean(axis=1, keepdims=True)
        approx = comps.spatial.T @ comps.temporal
        u, s, vt = np.linalg.svd(centered, full_matrices=False)
        oracle = (u[:, :5] * s[:5]) @ vt[:5]
        assert abs(
            np.linalg.norm(centered - approx) - np.linalg.norm(centered - oracle)
        ) < 1e-8

    def test_full_rank_reconstructs_exactly(self, rng):
        values = rng.normal(size=(6, 9))
        comps = svd_components(values, 6)
        centered = values - values.mean(axis=1, keepdims=True)
        npt.assert_allclose(comps.spatial.T @ comps.temporal, centered, atol=1e-8)

    def test_sign_convention(self, rng):
        data = rng.normal(size=(9, 25))
        comps = svd_components(data, 4)
        for row in comps.spatial:
            assert row[np.argmax(np.abs(row))] > 0

    def test_m_too_large(self, rng):
        data = rng.normal(size=(4, 25))
        with pytest.raises(ValueError, match="4"):
            svd_components(data, 5)


def _row_centered(rng, sigma, p, t):
    """A (p, t) matrix with zero row means and singular values `sigma`."""
    k = len(sigma)
    u, _ = np.linalg.qr(rng.normal(size=(p, k)))
    g = rng.normal(size=(t, k))
    v, _ = np.linalg.qr(g - g.mean(axis=0))
    return (u * sigma) @ v.T


class TestSvdRoutes:
    """The Gram eigensolve against np.linalg.svd, and when it hands over."""

    def _check_against_full_svd(self, values, comps):
        m = comps.m
        centered = values - values.mean(axis=1, keepdims=True)
        u, s, vt = np.linalg.svd(centered, full_matrices=False)
        sign = np.sign(u[np.argmax(np.abs(u[:, :m]), axis=0), np.arange(m)])
        npt.assert_allclose(comps.singular_values, s[:m], rtol=1e-12)
        npt.assert_allclose(comps.spatial, sign[:, None] * u[:, :m].T, atol=1e-10)
        npt.assert_allclose(comps.temporal, (sign * s[:m])[:, None] * vt[:m],
                            atol=1e-10 * s[0])
        npt.assert_allclose(comps.spatial.T @ comps.temporal, (u[:, :m] * s[:m]) @ vt[:m],
                            atol=1e-12 * s[0])
        for row in comps.spatial:
            assert row[np.argmax(np.abs(row))] > 0

    @pytest.mark.parametrize("shape", [(60, 25), (25, 60)], ids=["tall", "wide"])
    def test_gram_route_matches_full_svd(self, rng, shape):
        values = rng.normal(size=shape) + 3.0
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as full:
            comps = svd_components(values, 5)
        full.assert_not_called()
        self._check_against_full_svd(values, comps)

    @pytest.mark.parametrize("shape", [(40, 30), (30, 40)], ids=["tall", "wide"])
    def test_ill_conditioned_spectrum_takes_the_full_svd(self, rng, shape):
        sigma = np.array([1.0, 3e-5, 1e-5, 1e-6])  # sigma_2 / sigma_1 < 1e-4
        values = _row_centered(rng, sigma, *shape)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as full:
            comps = svd_components(values, 3)
        full.assert_called_once()
        self._check_against_full_svd(values, comps)

    @pytest.mark.parametrize("shape", [(12, 8), (8, 12)], ids=["tall", "wide"])
    def test_m_equal_to_min_dimension_takes_the_full_svd(self, rng, shape):
        values = rng.normal(size=shape)
        m = min(shape)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as full:
            comps = svd_components(values, m)
        full.assert_called_once()
        centered = values - values.mean(axis=1, keepdims=True)
        npt.assert_allclose(comps.spatial.T @ comps.temporal, centered, atol=1e-12)
        npt.assert_allclose(comps.spatial @ comps.spatial.T, np.eye(m), atol=1e-12)


class TestNormalize:
    def test_hand_arithmetic(self):
        # stds 2 and 4 -> divide by 3 -> mean of stds becomes 1
        rng = np.random.default_rng(0)
        base = rng.normal(size=40)
        base = (base - base.mean()) / base.std()
        temporal = np.vstack([2 * base, 4 * base * np.sign(np.roll(base, 1))])
        temporal[1] = temporal[1] - temporal[1].mean()
        temporal[1] *= 4 / temporal[1].std()
        comps = SvdComponents(
            temporal=temporal,
            spatial=np.eye(2, 5),
            singular_values=np.array([4.0, 2.0]),
        )
        normed = normalize_components(comps)
        npt.assert_allclose(normed.temporal, temporal / 3.0)
        npt.assert_allclose(normed.norm_scale, 3.0)
        npt.assert_allclose(np.mean(normed.temporal.std(axis=1)), 1.0)

    def test_single_component_divides_by_own_std(self, rng):
        t = rng.normal(size=(1, 50)) * 3.3
        comps = SvdComponents(temporal=t, spatial=np.ones((1, 4)),
                              singular_values=np.array([1.0]))
        normed = normalize_components(comps)
        npt.assert_allclose(normed.temporal.std(axis=1), [1.0])

    def test_idempotent(self, rng):
        t = rng.normal(size=(3, 60)) * np.array([[1.0], [5.0], [0.2]])
        comps = SvdComponents(temporal=t, spatial=np.eye(3, 6),
                              singular_values=np.array([3.0, 2.0, 1.0]))
        once = normalize_components(comps)
        twice = normalize_components(once)
        npt.assert_allclose(twice.temporal, once.temporal, atol=1e-12)
        npt.assert_allclose(twice.norm_scale, once.norm_scale, rtol=1e-12)

    def test_zero_scale_rejected(self):
        comps = SvdComponents(temporal=np.ones((2, 10)), spatial=np.eye(2, 3),
                              singular_values=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            normalize_components(comps)


def brute_force_matrix(spatial, sigma, w_sum):
    m, p = spatial.shape
    f = np.zeros((p, p))
    for i in range(m):
        for j in range(m):
            scale = np.sqrt(sigma[i]) * np.sqrt(sigma[j])
            f += w_sum[i, j] * scale * np.outer(spatial[i], spatial[j])
    return f


def brute_force_edges(spatial, sigma, w_sum, top_k):
    f = brute_force_matrix(spatial, sigma, w_sum)
    p = f.shape[0]
    entries = []
    for tgt in range(p):
        for src in range(p):
            entries.append((f[tgt, src], src, tgt))
    pos = sorted((e for e in entries if e[0] > 0), key=lambda e: (-e[0], e[2], e[1]))
    neg = sorted((e for e in entries if e[0] < 0), key=lambda e: (e[0], e[2], e[1]))
    out = [Edge(source=s, target=t, weight=w, polarity="excitatory")
           for w, s, t in pos[:top_k]]
    out += [Edge(source=s, target=t, weight=w, polarity="inhibitory")
            for w, s, t in neg[:top_k]]
    return out


def assert_edges_match(got, want, f_matrix):
    """Equality modulo exact weight ties.

    The library builds the pixel matrix by matrix products while the oracle
    accumulates outer products, so symmetric entries that tie exactly in one
    path can differ by an ulp in the other, permuting tied edges (and, at the
    cutoff, swapping which partner survives). The comparison therefore checks
    the weight sequence, and that each returned edge is a real matrix entry
    carrying its true weight.
    """
    assert [e.polarity for e in got] == [e.polarity for e in want]
    for g, w in zip(got, want):
        assert g.weight == pytest.approx(w.weight, rel=1e-9, abs=1e-12)
        assert g.weight == pytest.approx(
            f_matrix[g.target, g.source], rel=1e-9, abs=1e-12
        )
        assert (g.weight > 0) == (g.polarity == "excitatory")
    assert len({(e.source, e.target) for e in got}) == len(got)


class TestConnectivity:
    def test_one_hot_single_edge(self):
        edges = connectivity_projection(
            np.array([[1.0, 0.0, 0.0]]), np.array([1.0]), [np.array([[1.0]])], 5
        )
        assert len(edges) == 1
        e = edges[0]
        assert (e.source, e.target, e.polarity) == (0, 0, "excitatory")
        assert e.weight == pytest.approx(1.0)

    def test_negation_swaps_polarity(self, rng):
        spatial = rng.normal(size=(2, 5))
        sigma = np.array([2.0, 1.0])
        w = rng.normal(size=(2, 2))
        pos = connectivity_projection(spatial, sigma, [w], 4)
        neg = connectivity_projection(spatial, sigma, [-w], 4)
        pos_exc = {(e.source, e.target) for e in pos if e.polarity == "excitatory"}
        neg_inh = {(e.source, e.target) for e in neg if e.polarity == "inhibitory"}
        assert pos_exc == neg_inh

    def test_opposite_models_cancel(self, rng):
        spatial = rng.normal(size=(2, 4))
        w = rng.normal(size=(2, 2))
        edges = connectivity_projection(spatial, np.array([1.5, 0.5]), [w, -w], 3)
        assert edges == []

    def test_hand_sized_matches_brute_force(self, rng):
        spatial = rng.normal(size=(2, 3))
        sigma = np.array([2.0, 1.0])
        w = rng.normal(size=(2, 2))
        got = connectivity_projection(spatial, sigma, [w], 2)
        want = brute_force_edges(spatial, sigma, w, 2)
        assert [(e.source, e.target, e.polarity) for e in got] == [
            (e.source, e.target, e.polarity) for e in want
        ]
        assert_edges_match(got, want, brute_force_matrix(spatial, sigma, w))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_property_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 5))
        p = int(rng.integers(1, 11))
        spatial = rng.normal(size=(m, p))
        sigma = np.sort(rng.uniform(0.1, 3.0, m))[::-1].copy()
        w = rng.normal(size=(m, m))
        top_k = int(rng.integers(1, 6))
        got = connectivity_projection(spatial, sigma, [w], top_k)
        want = brute_force_edges(spatial, sigma, w, top_k)
        assert_edges_match(got, want, brute_force_matrix(spatial, sigma, w))

    def test_streaming_matches_dense_path(self, rng, monkeypatch):
        # row blocks of 7 pixels (the last one short) against one block
        m, p = 3, 40
        spatial = rng.normal(size=(m, p))
        sigma = np.array([3.0, 2.0, 1.0])
        w = rng.normal(size=(m, m))
        dense = connectivity_projection(spatial, sigma, [w], 10)
        monkeypatch.setattr(data, "_BLOCK_ENTRIES", 7 * p)
        streamed = connectivity_projection(spatial, sigma, [w], 10)
        assert dense == streamed

    @pytest.mark.parametrize("block_rows", [6, 4, 1])
    def test_top_k_cuts_ties_by_target_then_source(self, monkeypatch, block_rows):
        # duplicated pixel columns and integer weights make F integer-valued
        # and exact, with every value at least four times
        base = np.array([[1.0, 2.0, -1.0], [0.0, 1.0, 2.0]])
        spatial = np.hstack([base, base])
        sigma = np.ones(2)
        w = np.array([[1.0, -1.0], [2.0, 1.0]])
        f = brute_force_matrix(spatial, sigma, w)
        entries = [(f[t, s], t, s) for t in range(6) for s in range(6)]
        pos = sorted((e for e in entries if e[0] > 0), key=lambda e: (-e[0], e[1], e[2]))
        neg = sorted(e for e in entries if e[0] < 0)
        monkeypatch.setattr(data, "_BLOCK_ENTRIES", block_rows * 6)
        for top_k in (2, 6, 10):
            assert pos[top_k - 1][0] == pos[top_k][0]  # the cut splits a tie
            want = [Edge(source=s, target=t, weight=v, polarity="excitatory")
                    for v, t, s in pos[:top_k]]
            want += [Edge(source=s, target=t, weight=v, polarity="inhibitory")
                     for v, t, s in neg[:top_k]]
            assert connectivity_projection(spatial, sigma, [w], top_k) == want

    def test_edges_csv_round_trip(self, tmp_path, rng):
        spatial = rng.normal(size=(2, 4))
        edges = connectivity_projection(spatial, np.array([2.0, 1.0]),
                                        [rng.normal(size=(2, 2))], 3)
        path = tmp_path / "edges.csv"
        save_edges(edges, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "src,dst,weight,polarity"
        assert len(lines) == len(edges) + 1


class TestSplitSegments:
    def test_zebrafish_layout(self):
        split = split_segments(600, 100, 20, 5)
        offsets = [seg.train[0] for seg in split.segments]
        assert offsets == [0, 120, 240, 360, 480]
        for seg in split.segments:
            assert seg.train[1] - seg.train[0] == 100
            assert seg.test[1] - seg.test[0] == 20
            assert seg.test[0] == seg.train[1]

    def test_rat_layout(self):
        split = split_segments(276, 100, 176, 1)
        seg = split.segments[0]
        assert seg.train == (0, 100)
        assert seg.test == (100, 276)

    def test_insufficient_length_states_both_numbers(self):
        with pytest.raises(ValueError, match=r"600.*have 500"):
            split_segments(500, 100, 20, 5)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_ranges_disjoint_and_ordered(self, seed):
        rng = np.random.default_rng(seed)
        train = int(rng.integers(1, 50))
        test = int(rng.integers(1, 50))
        n = int(rng.integers(1, 6))
        t = n * (train + test) + int(rng.integers(0, 30))
        split = split_segments(t, train, test, n)
        spans = []
        for seg in split.segments:
            spans.extend([seg.train, seg.test])
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a0 < a1 <= b0 < b1

    def test_accepts_components(self, rng):
        comps = SvdComponents(temporal=rng.normal(size=(2, 130)),
                              spatial=np.eye(2, 4),
                              singular_values=np.array([2.0, 1.0]))
        split = split_segments(comps.n_samples, 50, 10, 2)
        assert split.n_segments == 2


class TestComponentsIo:
    def test_directory_round_trip(self, tmp_path, rng):
        values = rng.normal(size=(10, 60))
        comps = normalize_components(svd_components(values, 3))
        save_components(comps, tmp_path / "comps", extra_meta={"note": "x"})
        back = load_components(tmp_path / "comps")
        npt.assert_array_equal(back.temporal, comps.temporal)
        npt.assert_array_equal(back.spatial, comps.spatial)
        npt.assert_array_equal(back.singular_values, comps.singular_values)
        assert back.norm_scale == comps.norm_scale
