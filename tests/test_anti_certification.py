"""Golden negativity witnesses and their independent re-verification."""

import itertools
import random
import sys
import threading
from collections import Counter
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _bareiss import _int_det
from tetravol import anti_certification
from tetravol.anti_certification import (
    _NETWORK, SNAP_SCALE, Witness, _cofactors, _jacobi_g, _PinnedForms,
    _Screen, anti_certify, barycentric_block, excluded_chambers,
    f_value_bordered, full_k4_campaign, read_witnesses, snap_point,
    verify_witness,
)
from tetravol.case_suite_cli import case_registry
from tetravol.cayley_menger import EDGES, EdgeSubset, \
    directional_derivative, f_polynomial
from tetravol.chamber_geometry import build_partitions, \
    certified_chambers, decoration, decorations
from tetravol.exact_poly import Polynomial

int_points = st.tuples(*[st.integers(-40, 40) for _ in range(6)])

# the cases without a K4 campaign, whose excluded chambers the golden file
# witnesses, in registry order
ASSERTED_BETAS = tuple(spec.beta.spec() for spec in case_registry().values()
                       if spec.campaign_trials == 0)

# the 63 nonempty edge subsets of K4
ALL_BETAS = tuple(EdgeSubset(ks) for r in range(1, 7)
                  for ks in itertools.combinations(range(6), r))


def _bordered(point):
    """The bordered matrix of squared lengths at an integer point.

    Row and column i (1..4) belong to vertex i; row and column 0 hold
    the border of ones.
    """
    s = [int(d) * int(d) for d in point]
    return [[0, 1, 1, 1, 1],
            [1, 0, s[0], s[1], s[2]],
            [1, s[0], 0, s[3], s[4]],
            [1, s[1], s[3], 0, s[5]],
            [1, s[2], s[4], s[5], 0]]


def g_value_cofactor(point, beta):
    """``verify_witness``'s g at an integer point: M's cofactors there,
    then Jacobi's formula."""
    return _jacobi_g(point, _cofactors(point)[1], beta)


# the oracles for ``g_value_cofactor``: one cofactor of the bordered
# matrix per edge, and four bordered determinants per edge
def g_value_bordered(point, beta):
    """The directional derivative over the EdgeSubset beta, one bordered
    cofactor per edge.

    Edge k = (i, j) holds s_k = d_k^2 at entries (i, j) and (j, i) of the
    bordered matrix B.  Jacobi's formula gives d det B / d s_k as the sum
    of the two equal cofactors C_ij + C_ji = 2 C_ij, so the partial of f
    in d_k is 4 d_k C_ij, each C_ij a 4x4 minor of B taken by Bareiss.
    """
    m = _bordered(point)
    total = 0
    for k in sorted(beta.indices):
        i, j = EDGES[k]
        minor = _int_det([row[:j] + row[j + 1:]
                          for r, row in enumerate(m) if r != i])
        total += 4 * int(point[k]) * (-minor if (i + j) % 2 else minor)
    return total


def g_value_stencil(point, beta):
    """Directional derivative via exact five-point differentiation of f.

    f has degree four in each single coordinate, so the stencil
    (8*(f(p+u) - f(p-u)) - (f(p+2u) - f(p-2u))) / 12 recovers the exact
    partial derivative at integer points.  beta is an EdgeSubset.
    """
    total = 0
    for k in sorted(beta.indices):
        vals = {}
        for step in (-2, -1, 1, 2):
            q = list(point)
            q[k] += step
            vals[step] = f_value_bordered(q)
        num = 8 * (vals[1] - vals[-1]) - (vals[2] - vals[-2])
        if num % 12:
            raise ArithmeticError("stencil numerator not divisible by 12")
        total += num // 12
    return total


def generate_golden():
    """One witness per excluded chamber per case; raises if a search fails."""
    out = []
    for spec in ASSERTED_BETAS:
        beta = EdgeSubset.parse(spec)
        for dec in excluded_chambers(beta):
            w = anti_certify(dec, beta)
            if w is None:
                raise RuntimeError("no witness found for beta=%s chamber=%s"
                                   % (spec, dec.id))
            out.append(w)
    return out


def write_witnesses(path, witnesses):
    with open(path, "w") as fh:
        fh.write("# anti-certification witnesses: "
                 "<beta> <chamber-id> <p1..p6> <f-value> <g-value>\n")
        for w in witnesses:
            fh.write(w.line() + "\n")


def barycentric_sample(rng):
    """Six nonnegative weights summing to one, by sorted uniform spacings.

    One trial at a time: the oracle for ``barycentric_block``.
    """
    cuts = sorted(rng.random() for _ in range(5))
    out = []
    prev = 0.0
    for c in cuts:
        out.append(c - prev)
        prev = c
    out.append(1.0 - prev)
    return out


def float_form_reference(poly, points):
    """poly at the rows of points from the broadcast (n, T, 6) power product.

    The oracle for ``_PinnedForms``: every prescreen float must equal it.
    """
    exps = sorted(poly.terms)
    coeffs = np.array([float(poly.terms[e]) for e in exps])
    pts = np.asarray(points, dtype=np.float64)
    return (pts[:, None, :] ** np.array(exps, dtype=np.int64)[None, :, :]) \
        .prod(axis=2) @ coeffs


@given(int_points)
@settings(max_examples=60)
def test_bordered_determinant_matches_the_polynomial(pt):
    assert f_value_bordered(pt) == f_polynomial().evaluate(pt)


@given(st.tuples(*[st.integers(-10 ** 12, 10 ** 12) for _ in range(6)]))
@example((0, 0, 0, 0, 0, 0))
@example((1, 1, 1, 1, 1, 1))
@settings(max_examples=200)
def test_border_elimination_equals_the_bordered_determinant(pt):
    # the 3x3 form against the 5x5 bordered matrix it was reduced from
    assert f_value_bordered(pt) == _int_det(_bordered(pt))


@given(st.tuples(*[st.integers(-10 ** 12, 10 ** 12) for _ in range(6)]))
@example((0, 0, 0, 0, 0, 0))
@example((1, 0, -1, 0, 1, 0))
@example((-7, 3, 0, -2, 5, -11))
@settings(max_examples=100, deadline=None)
def test_cofactor_g_equals_the_bordered_cofactors_edge_by_edge(pt):
    # each partial read off M's cofactors against one 4x4 minor of the
    # bordered matrix and against the polynomial's own partial
    f = f_polynomial()
    for k in range(6):
        edge = EdgeSubset((k,))
        g = g_value_cofactor(pt, edge)
        assert g == g_value_bordered(pt, edge)
        assert g == f.partial_derivative(k).evaluate(pt)


@given(int_points)
@example((0, 0, 0, 0, 0, 0))
@example((0, -3, 5, 0, -7, 2))
@example((-40, -40, -40, -40, -40, -40))
@settings(max_examples=25, deadline=None)
def test_stencil_matches_the_polynomial_derivative(pt):
    # verify_witness's cofactor g against three other paths, on every beta
    for beta in ALL_BETAS:
        g = g_value_cofactor(pt, beta)
        assert g == g_value_bordered(pt, beta)
        assert g == g_value_stencil(pt, beta)
        assert g == directional_derivative(beta).evaluate(pt)


def test_excluded_plus_certified_cover_all_chambers():
    for spec in ASSERTED_BETAS:
        beta = EdgeSubset.parse(spec)
        cert = {d.id for d in certified_chambers(beta)}
        excl = {d.id for d in excluded_chambers(beta)}
        assert not cert & excl
        assert len(cert) + len(excl) == 48


def test_witness_file_has_one_entry_per_excluded_chamber():
    ws = read_witnesses()
    assert len(ws) == 216
    counts = Counter(w.beta for w in ws)
    assert counts == {
        "12": 36, "12,13": 44, "12,34": 16, "12,13,14": 36,
        "12,14,23": 40, "12,13,24,34": 32, "12,13,23": 12,
    }
    for spec in ASSERTED_BETAS:
        if spec == "12,13,14,23,24,34":
            continue
        chamber_ids = {w.chamber for w in ws if w.beta == spec}
        expected = {d.id for d in
                    excluded_chambers(EdgeSubset.parse(spec))}
        assert chamber_ids == expected


def test_every_golden_witness_reverifies(monkeypatch):
    calls = []

    def spy(point):
        calls.append(point)
        return _cofactors(point)

    monkeypatch.setattr(anti_certification, "_cofactors", spy)
    ws = read_witnesses()
    assert all(min(w.f_value, w.g_value) < 0 for w in ws)
    assert all(verify_witness(w) for w in ws)
    # one set of cofactors per witness: f and g are both read off it
    assert calls == [w.point for w in ws]
    assert all(g_value_stencil(w.point, EdgeSubset.parse(w.beta)) == w.g_value
               for w in ws)


def test_generate_golden_reproduces_the_packaged_file(tmp_path):
    # the float prescreen picks which witness is found first, so any change
    # to it or to the exact search shows up as a differing line here
    path = tmp_path / "witnesses.txt"
    write_witnesses(path, generate_golden())
    packaged = resources.files("tetravol") / "data" / "witnesses.txt"
    assert path.read_text().splitlines() == \
        packaged.read_text().splitlines()


def test_generate_golden_reaches_the_pinned_floats(monkeypatch):
    # the golden file checks the pinned floats only through the blocks
    # that the screen's band leaves open, so some must reach them, and
    # each of their values must equal the oracle's bit for bit
    betas, ran = {}, []
    screen, at = anti_certification._screen, _PinnedForms.at

    def screen_spy(beta):
        s = screen(beta)
        betas[id(s.forms)] = beta
        return s

    def at_spy(self, points):
        values = at(self, points)
        ran.append((betas[id(self)], points.copy(), values))
        return values

    monkeypatch.setattr(anti_certification, "_screen", screen_spy)
    monkeypatch.setattr(anti_certification._PinnedForms, "at", at_spy)
    generate_golden()
    assert len(ran) >= 1
    for beta, points, (fv, gv) in ran:
        assert fv.tobytes() == \
            float_form_reference(f_polynomial(), points).tobytes()
        assert gv.tobytes() == float_form_reference(
            directional_derivative(beta), points).tobytes()


def test_witness_line_roundtrip():
    ws = read_witnesses()
    for w in ws[::37]:
        assert Witness.parse(w.line()) == w
    with pytest.raises(ValueError):
        Witness.parse("only three fields")


def test_a_searched_witness_survives_its_line():
    # a witness found at a nonzero seed equals the one its line parses to
    beta = EdgeSubset.parse("12,13")
    w = anti_certify(excluded_chambers(beta)[0], beta, trials=500, seed=4)
    assert w is not None
    assert Witness.parse(w.line()) == w


def test_tampered_witness_fails_verification():
    for w in read_witnesses()[::27]:
        assert verify_witness(w)
        for df, dg in ((1, 0), (0, -1), (0, 1)):
            assert not verify_witness(Witness(
                w.beta, w.chamber, w.point, w.f_value + df, w.g_value + dg))
        # the same point under beta with one edge added or dropped: g moves
        beta = EdgeSubset.parse(w.beta).indices
        for k in range(6):
            if beta == {k}:
                continue
            other = EdgeSubset(beta ^ {k})
            assert g_value_bordered(w.point, other) != w.g_value
            assert not verify_witness(Witness(
                other.spec(), w.chamber, w.point, w.f_value, w.g_value))
        # chambers whose cones exclude the point
        outside = [d.id for d in decorations() if not d.membership(w.point)]
        assert outside
        for chamber in outside[:3]:
            assert not verify_witness(
                Witness(w.beta, chamber, w.point, w.f_value, w.g_value))


def test_write_read_roundtrip(tmp_path):
    ws = read_witnesses()[:5]
    path = tmp_path / "w.txt"
    write_witnesses(path, ws)
    packaged = resources.files("tetravol") / "data" / "witnesses.txt"
    assert path.read_text().splitlines() == \
        packaged.read_text().splitlines()[:6]


def test_anti_certify_is_deterministic():
    beta = EdgeSubset.parse("12,13")
    chamber = excluded_chambers(beta)[0]
    a = anti_certify(chamber, beta, trials=500, seed=4)
    b = anti_certify(chamber, beta, trials=500, seed=4)
    assert a is not None
    assert a == b
    assert a.chamber == chamber.id
    assert min(a.f_value, a.g_value) < 0
    assert verify_witness(a)


def test_anti_certify_finds_nothing_on_a_certified_chamber():
    beta = EdgeSubset.parse("12")
    chamber = certified_chambers(beta)[0]
    assert anti_certify(chamber, beta, trials=300, seed=1) is None


def test_small_campaign_comes_back_empty():
    ws, hits = full_k4_campaign(trials=400, seed=9)
    assert ws == []
    assert hits == 0
    again = full_k4_campaign(trials=400, seed=9)
    assert again == (ws, hits)


def test_campaign_counts_only_the_rejected_candidates(monkeypatch):
    w = read_witnesses()[0]

    def outcomes(decs, beta, rng, trials, cubed_from):
        yield from (None, w, None)

    monkeypatch.setattr(anti_certification, "_outcomes", outcomes)
    assert full_k4_campaign(trials=3) == ([w], 2)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("trials", [10000, 20000, 30000])
def test_campaign_outcomes_at_benchmark_sizes(trials, seed):
    # pinned outputs at sizes the checks benchmark runs; no recorded seed
    # has a float candidate, so the count reads 0
    assert full_k4_campaign(trials=trials, seed=seed) == ([], 0)


def test_a_fifth_power_stage_witness_is_pinned():
    # the golden searches stop before trial 15000, the fifth-power start;
    # this one finds its witness at trial 1538 of 2000, past 1500
    beta = EdgeSubset.parse("12,13")
    w = anti_certify(decoration("p1423b3"), beta, trials=2000, seed=0)
    assert w.line() == (
        "12,13 p1423b3 32308936101 21085145 47693459378 32315780362 "
        "79974818977 47685919965 "
        "11904245438435418912116659534068586451950344725291709312 "
        "-23356779896524242506608707809959600794482824348800")
    assert verify_witness(w)


def test_sampling_helpers():
    rng = random.Random(3)
    lam = barycentric_sample(rng)
    assert len(lam) == 6
    assert all(v >= 0 for v in lam)
    assert abs(sum(lam) - 1.0) < 1e-9
    cell = build_partitions().fortyeight["D_1111"]
    pt = snap_point(lam, cell.vertices)
    assert all(isinstance(v, int) for v in pt)
    # snapped numerators stay within the scaled hull bounds
    assert all(0 <= v <= 8 * SNAP_SCALE for v in pt)


@pytest.mark.parametrize("n", [1, 5, 4095, 4096, 4097])
def test_block_sampler_matches_trial_by_trial_draws(n):
    one, block = random.Random(n), random.Random(n)
    rows = np.array([barycentric_sample(one) for _ in range(n)])
    got = barycentric_block(block, n)
    assert got.shape == (n, 6)
    assert np.array_equal(got, rows)
    assert block.getstate() == one.getstate()


def test_network_sorts_every_five_keys_over_three_values():
    # all 3^5 rows over {0, 1, 2}: every order of five distinct ranks and
    # every pattern of ties; by the 0-1 principle {0, 1}^5 alone proves it
    rows = np.array(list(itertools.product((0.0, 1.0, 2.0), repeat=5)))
    c = list(rows.T.copy())
    for i, j in _NETWORK:
        c[i], c[j] = np.minimum(c[i], c[j]), np.maximum(c[i], c[j])
    assert len(_NETWORK) == 9
    assert np.array_equal(np.array(c).T, np.sort(rows, axis=1))


@pytest.mark.parametrize("n", [1, 7, 255, 256, 257, 513, 769, 4096])
def test_float_forms_equal_the_broadcast_oracle_bit_for_bit(n):
    # The K4 campaign's prescreen count is 0 at every seed tried, so its
    # return value cannot show float drift, and the golden file sees the
    # floats only where a search stops.  Exact equality is the check.
    polys = (f_polynomial(), directional_derivative(EdgeSubset.full()),
             directional_derivative(EdgeSubset.parse("12,34")))
    rng = np.random.default_rng(n)
    pts = rng.random((n, 6)) * 8.0
    pts[::3, rng.integers(6)] = 0.0
    pts[1::3] *= 1e6
    for poly, got in zip(polys, _PinnedForms(*polys).at(pts)):
        assert np.array_equal(got, float_form_reference(poly, pts))


def test_float_forms_ignore_the_term_order():
    # the golden file pins every bit of the prescreen floats, and f's dict
    # order is whatever building it leaves
    polys = (f_polynomial(), directional_derivative(EdgeSubset.parse("12,13")))
    flipped = [Polynomial._canonical(6, dict(reversed(p.terms.items())))
               for p in polys]
    assert [list(p.terms) for p in flipped] != [list(p.terms) for p in polys]
    cell = build_partitions().fortyeight["D_3111"]
    pts = barycentric_block(random.Random(5), 1024) @ np.array(
        cell.vertices, dtype=np.float64)
    want = _PinnedForms(*polys).at(pts)
    got = _PinnedForms(*flipped).at(pts)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


exponent_tuples = st.tuples(*[st.integers(0, 4) for _ in range(6)])
nonzero_ints = st.integers(-10 ** 6, 10 ** 6).filter(bool)


@st.composite
def prescreen_polynomials(draw):
    """A 6-variable polynomial with a constant term, a single-variable
    term and terms that share their leading factors."""
    terms = draw(st.dictionaries(exponent_tuples, nonzero_ints, max_size=30))
    terms[(0,) * 6] = draw(nonzero_ints)
    v, k = draw(st.integers(0, 5)), draw(st.integers(1, 4))
    terms[tuple(k if i == v else 0 for i in range(6))] = draw(nonzero_ints)
    lead = draw(exponent_tuples)[:3]
    for tail in draw(st.lists(exponent_tuples, min_size=2, max_size=4)):
        terms[lead + tail[3:]] = draw(nonzero_ints)
    return Polynomial(6, terms)


@given(st.lists(prescreen_polynomials(), min_size=1, max_size=3),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_float_forms_of_random_polynomials_equal_the_oracle(polys, seed):
    # one object through batches that shrink and grow again, so anything
    # that one batch left behind for the next would show
    forms = _PinnedForms(*polys)
    rng = np.random.default_rng(seed)
    for n in (1024, 300, 1024, 1):
        pts = rng.random((n, 6)) * 8.0
        pts[::5, rng.integers(6)] = 0.0
        for poly, got in zip(polys, forms.at(pts)):
            assert got.tobytes() == float_form_reference(poly, pts).tobytes()


def oracle_mask(beta, points):
    """The candidate mask that the broadcast oracle's floats give."""
    f = float_form_reference(f_polynomial(), points)
    g = float_form_reference(directional_derivative(beta), points)
    return (f > 0.0) & (g < 0.0)


def test_float_forms_on_the_first_campaign_batches(monkeypatch):
    # full_k4_campaign's float candidate count is 0 at every seed, so its
    # result cannot show a wrong mask: rebuild its first two batches, see
    # that the campaign screens those points, and hold its candidate mask
    # there to the oracle's on every point
    decs = decorations()
    parts = build_partitions()
    stack = np.array([parts.simplex_for_decoration(d).vertices
                      for d in decs], dtype=np.float64)
    rng = random.Random("K4-campaign|0")
    want = []
    for done in (0, 1024):
        idx = (done + np.arange(1024)) % len(decs)
        want.append(np.einsum("ij,ijk->ik", barycentric_block(rng, 1024),
                              stack[idx]))
    seen = []
    candidates, at = _Screen.candidates, _PinnedForms.at

    def spy(self, points):
        mask = candidates(self, points)
        seen.append((points.copy(), mask.copy()))
        return mask

    def at_spy(self, points):
        raise AssertionError("the band decides every point of these batches")

    monkeypatch.setattr(anti_certification._Screen, "candidates", spy)
    monkeypatch.setattr(anti_certification._PinnedForms, "at", at_spy)
    assert full_k4_campaign(trials=2048, seed=0) == ([], 0)
    assert len(seen) == 2
    for pts, (points, mask) in zip(want, seen):
        assert points.tobytes() == pts.tobytes()
        assert np.array_equal(mask, oracle_mask(EdgeSubset.full(), pts))
    # with at back, the same batches through the fallback give the same
    monkeypatch.setattr(anti_certification._PinnedForms, "at", at)
    screen = _Screen(EdgeSubset.full())
    for points, mask in seen:
        fv, gv = screen.forms.at(points)
        assert np.array_equal((fv > 0.0) & (gv < 0.0), mask)


def _power_weights_by_rows(q, k):
    """The oracle for the powering in ``_outcomes``: one row at a time on
    Python floats, libm pow, a left-to-right sum and one division each."""
    u = [w ** k for w in q]
    s = sum(u)
    return [w / s for w in u]


def test_powered_weights_match_the_row_by_row_oracle_bit_for_bit(
        monkeypatch):
    # the golden file sees the weights only through snapped points, which
    # a last-bit change seldom moves: rebuild a search's screened points
    # with the per-row oracle, over blocks that start cubing (trial 1000)
    # and the fifth power (trial 2000) partway through
    dec, beta = decoration("p1324b2"), EdgeSubset.parse("12,13,14,23,24")
    cell = np.array(build_partitions().simplex_for_decoration(dec).vertices,
                    dtype=np.float64)
    rng = random.Random(11)
    want = []
    for done in range(0, 3000, 1024):
        qs = barycentric_block(rng, min(1024, 3000 - done))
        for i in range(max(1000 - done, 0), len(qs)):
            qs[i] = _power_weights_by_rows(
                qs[i].tolist(), 5 if done + i >= 2000 else 3)
        # the points as _outcomes forms them, from one stacked simplex
        want.append(np.einsum("ij,ijk->ik", qs, cell[None].repeat(len(qs), 0)))
    seen = []
    candidates = _Screen.candidates

    def spy(self, points):
        seen.append(points.copy())
        return candidates(self, points)

    monkeypatch.setattr(anti_certification._Screen, "candidates", spy)
    list(anti_certification._outcomes([dec], beta, random.Random(11), 3000,
                                      1000))
    assert [p.tobytes() for p in seen] == [p.tobytes() for p in want]


def test_campaigns_in_two_threads_match_one_after_the_other(monkeypatch):
    # a beta's screen holds no mutable state, so two campaigns may share
    # it at once; every batch's points and candidate mask must match
    # the sequential run, and every mask the oracle's
    seen = {}
    candidates = _Screen.candidates

    def spy(self, points):
        mask = candidates(self, points)
        seen.setdefault(threading.current_thread().name, []).append(
            (points.copy(), mask.copy()))
        return mask

    monkeypatch.setattr(anti_certification._Screen, "candidates", spy)
    seeds = {"a": 5, "b": 6}

    def campaigns(seed, out):
        for _ in range(2):
            out.append(full_k4_campaign(trials=4000, seed=seed))

    alone = {name: [] for name in seeds}
    for name, seed in seeds.items():
        thread = threading.Thread(target=campaigns, name=name,
                                  args=(seed, alone[name]))
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
    want, seen = seen, {}
    results = {name: [] for name in seeds}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=campaigns, name=name,
                                    args=(seed, results[name]))
                   for name, seed in seeds.items()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == alone == {name: [([], 0)] * 2 for name in seeds}
    assert len(want["a"]) == len(want["b"]) == 8
    for name in seeds:
        assert len(seen[name]) == 8
        for (points, mask), (pts, want_mask) in zip(seen[name], want[name]):
            assert points.tobytes() == pts.tobytes()
            assert mask.tobytes() == want_mask.tobytes()
            assert np.array_equal(mask, oracle_mask(EdgeSubset.full(),
                                                    points))


# the screens the soundness tests hold to the oracle: f with the K4 g,
# and f with a 2-edge g
SCREENED_BETAS = (EdgeSubset.full(), EdgeSubset.parse("12,34"))


def assert_screen_decides_as_the_oracle(beta, points):
    """Where the screen's band decides f's or g's sign, the oracle's
    floats have that sign; where it decides a row, the oracle's mask
    agrees.  Returns how many signs of f and of g the band decided."""
    screen = _Screen(beta)
    bands = screen.bands(points)
    if bands is None:
        return 0, 0
    f, g, band_f, band_g = bands
    want_f = float_form_reference(f_polynomial(), points)
    want_g = float_form_reference(directional_derivative(beta), points)
    assert np.all(want_f[f > band_f] > 0) and np.all(want_f[f < -band_f] < 0)
    assert np.all(want_g[g > band_g] > 0) and np.all(want_g[g < -band_g] < 0)
    for row in points:
        mask = screen.decide(row[None, :])
        if mask is not None:
            assert mask.tolist() == oracle_mask(beta, row[None, :]).tolist()
    return np.sum(abs(f) > band_f), np.sum(abs(g) > band_g)


@given(int_points)
@example((0, 0, 0, 0, 0, 0))
@example((-40, 40, -40, 40, -40, 40))
@settings(max_examples=60)
def test_the_screen_is_exact_at_small_integer_points(pt):
    # every float the screen makes from coordinates up to 40 is an integer
    # below 2^53, so F and G are f and g exactly; the origin lies below
    # LOW, so the screen leaves it to the pinned floats
    f_exact, cofactors = _cofactors(pt)
    for beta in ALL_BETAS[::7]:
        bands = _Screen(beta).bands(np.array([pt], dtype=np.float64))
        if not any(pt):
            assert bands is None
            continue
        f, g, _, _ = bands
        assert (f[0], g[0]) == (f_exact, _jacobi_g(pt, cofactors, beta))


coordinates = st.one_of(st.just(0.0), st.floats(0.0, 8.0))


@given(st.lists(st.tuples(*[coordinates] * 6), min_size=1, max_size=8),
       st.sampled_from([1.0, 1e6, 1e-6, 2.0 ** -90, 2.0 ** -178]))
@example([(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)], 1e6)
@example([(0.0, 0.0, 0.0, 0.0, 0.0, 5e-324)], 1.0)
@settings(max_examples=60, deadline=None)
def test_the_screen_decides_only_as_the_pinned_floats_do(rows, scale):
    points = np.array(rows) * scale
    for beta in SCREENED_BETAS:
        assert_screen_decides_as_the_oracle(beta, points)


def test_the_screen_near_the_zero_sets_decides_only_as_the_oracle():
    # bisect the oracle's sign of f and of g between random points whose
    # signs differ, then step off the crossing by 2^-k of the segment for
    # k = 4..52: the steps straddle each band's edge, so the screen must
    # decide some of these points and leave others to the fallback
    rng = np.random.default_rng(3)
    for beta in SCREENED_BETAS:
        forms = (f_polynomial(), directional_derivative(beta))
        for i, poly in enumerate(forms):
            a, b = rng.random((2, 400, 6)) * 8.0
            sa = float_form_reference(poly, a) > 0
            sb = float_form_reference(poly, b) > 0
            a, b = a[sa != sb][:20], b[sa != sb][:20]
            lo, hi = np.zeros(len(a)), np.ones(len(a))
            for _ in range(60):
                mid = (lo + hi) / 2
                at_mid = float_form_reference(poly, a + mid[:, None] * (b - a))
                same = (at_mid > 0) == (float_form_reference(poly, a) > 0)
                lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
            steps = np.array([s * 2.0 ** -k for k in range(4, 53)
                              for s in (-1.0, 1.0)] + [0.0])
            t = np.clip(lo[:, None] + steps[None, :], 0.0, 1.0)
            points = (a[:, None, :] + t[..., None] * (b - a)[:, None, :]) \
                .reshape(-1, 6)
            decided = assert_screen_decides_as_the_oracle(beta, points)[i]
            assert 0 < decided < len(points)
            # scaled far down, these products would underflow into wrong
            # signs, were the screen to decide there at all
            assert assert_screen_decides_as_the_oracle(
                beta, points * 2.0 ** -178) == (0, 0)


# integer points where f or g is exactly 0, each with the beta it is for:
# f = 0 with g < 0, g = 0 with f > 0, and f = g = 0 away from the origin
DEGENERATE = ((EdgeSubset.parse("12,34"), (2, 1, 3, 2, 4, 4)),
              (EdgeSubset.full(), (0, 0, 2, 2, 0, 3)),
              (EdgeSubset.parse("12,34"), (0, 0, 1, 1, 2, 0)),
              (EdgeSubset.full(), (0, 0, 0, 0, 0, 1)))


@pytest.mark.parametrize("beta, point", DEGENERATE)
def test_exactly_degenerate_points_fall_back_to_the_pinned_floats(
        monkeypatch, beta, point):
    f_exact, cofactors = _cofactors(point)
    g_exact = _jacobi_g(point, cofactors, beta)
    assert 0 in (f_exact, g_exact) and f_exact >= 0 >= g_exact
    screen = _Screen(beta)
    for scale in (1.0, 2.0 ** 20):
        row = np.array([point], dtype=np.float64) * scale
        f, g, band_f, band_g = screen.bands(row)
        assert abs(f[0]) <= band_f[0] or f_exact
        assert abs(g[0]) <= band_g[0] or g_exact
        assert screen.decide(row) is None
    # among the points of a campaign block, the whole block goes to at
    cell = build_partitions().fortyeight["D_3111"]
    points = barycentric_block(random.Random(9), 1024) @ np.array(
        cell.vertices, dtype=np.float64)
    points[[5, 700]] = point
    assert screen.decide(np.delete(points, [5, 700], axis=0)) is not None
    ran = []
    at = _PinnedForms.at

    def spy(self, block):
        ran.append(block.copy())
        return at(self, block)

    monkeypatch.setattr(anti_certification._PinnedForms, "at", spy)
    mask = screen.candidates(points)
    assert len(ran) == 1 and ran[0].tobytes() == points.tobytes()
    assert np.array_equal(mask, oracle_mask(beta, points))


def test_anti_certify_and_the_campaign_need_a_trial():
    beta = EdgeSubset.parse("12")
    chamber = excluded_chambers(beta)[0]
    for trials in (0, -2):
        with pytest.raises(ValueError, match="need trials >= 1"):
            anti_certify(chamber, beta, trials=trials)
        with pytest.raises(ValueError, match="need trials >= 1"):
            full_k4_campaign(trials=trials - 1)
    assert full_k4_campaign(trials=1) == ([], 0)
    assert anti_certify(chamber, beta, trials=1) is None
