"""Golden negativity witnesses and their independent re-verification."""

import itertools
import math
import random
import sys
import threading
from collections import Counter
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _bareiss import _int_det
from tetravol import anti_certification
from tetravol.anti_certification import (
    _NETWORK, SNAP_SCALE, Witness, _cofactors, _jacobi_g, _Screen,
    anti_certify, barycentric_block, excluded_chambers, f_value_bordered,
    full_k4_campaign, read_witnesses, snap_point, verify_witness,
)
from tetravol.case_suite_cli import case_registry
from tetravol.cayley_menger import EDGES, EdgeSubset, \
    directional_derivative, f_polynomial
from tetravol.chamber_geometry import build_partitions, \
    certified_chambers, decoration, decorations

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


def exact_values(poly, points):
    """poly at each float row of points, as an exact Fraction: the oracle
    for the screen and its exact fallback.

    A row's floats are integers n_v over one power of two 2^k, so a term
    c x^e is c prod n_v^e_v over 2^(k |e|); each is brought over
    2^(k deg) and summed in integers.  Written term by term, it relies
    neither on ``Polynomial.evaluate`` nor on homogeneity.
    """
    deg = poly.total_degree()
    out = []
    for row in np.asarray(points).tolist():
        ratios = [Fraction(x) for x in row]
        k = max(r.denominator for r in ratios).bit_length() - 1
        n = [r.numerator << k - (r.denominator.bit_length() - 1)
             for r in ratios]
        out.append(Fraction(sum(c * math.prod(map(pow, n, e))
                                << k * (deg - sum(e))
                                for e, c in poly.terms.items()),
                            1 << k * deg))
    return out


def sign(v):
    return int(v > 0) - int(v < 0)


def exact_mask(beta, points):
    """The exact candidate mask, f > 0 and g < 0, at the float rows."""
    return np.array([a > 0 and b < 0 for a, b in zip(
        exact_values(f_polynomial(), points),
        exact_values(directional_derivative(beta), points))], dtype=bool)


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


def test_generate_golden_reaches_the_exact_decision(monkeypatch):
    # the golden file checks the exact fallback only through the points
    # that the screen's band leaves open, so some must reach it, and each
    # of its decisions must be the Fraction oracle's
    ran = []
    exact = _Screen.exact

    def spy(self, row):
        decided = exact(self, row)
        ran.append((directional_derivative(self.beta), row.copy(), decided))
        return decided

    monkeypatch.setattr(anti_certification._Screen, "exact", spy)
    generate_golden()
    assert len(ran) >= 1
    for g, row, decided in ran:
        f_exact, = exact_values(f_polynomial(), [row])
        g_exact, = exact_values(g, [row])
        assert decided == (f_exact > 0 and g_exact < 0)


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


def test_a_candidate_outside_the_cone_is_rejected(monkeypatch):
    # a search that finds its chamber's golden witness, with every point
    # put outside the cone: each of its float candidates is rejected,
    # which is what the K4 report counts
    dec, beta = decoration("p4213b1"), EdgeSubset.parse("12")
    assert anti_certify(dec, beta) in read_witnesses()
    monkeypatch.setattr(anti_certification, "in_cone", lambda point: False)
    assert anti_certify(dec, beta) is None
    rng = random.Random("%s|%s|%d" % (beta.spec(), dec.id, 0))
    outcomes = list(anti_certification._outcomes([dec], beta, rng, 20000,
                                                 10000))
    assert outcomes == [None] * 128


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
    # a screen holds no mutable state and no cache is shared, so two
    # campaigns may run at once; every batch's points and candidate mask
    # must match the sequential run, the band must decide every point,
    # and the sequential masks must be the exact ones
    seen = {}
    candidates = _Screen.candidates

    def exact(self, row):
        raise AssertionError("the band decides every campaign point")

    def spy(self, points):
        mask = candidates(self, points)
        seen.setdefault(threading.current_thread().name, []).append(
            (points.copy(), mask.copy()))
        return mask

    monkeypatch.setattr(anti_certification._Screen, "candidates", spy)
    monkeypatch.setattr(anti_certification._Screen, "exact", exact)
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
        # each campaign runs twice, so its first four batches are all
        for points, mask in want[name][:4]:
            assert np.array_equal(mask, exact_mask(EdgeSubset.full(), points))


class _Majorant:
    """A number whose - adds and whose negation is the identity: the
    program run on it at x = (1, ..., 1) is its majorant there."""

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        return _Majorant(self.v + getattr(other, "v", other))

    __radd__ = __sub__ = __add__

    def __mul__(self, other):
        return _Majorant(self.v * getattr(other, "v", other))

    __rmul__ = __mul__

    def __neg__(self):
        return self


def test_the_screens_majorants_are_the_programs_at_all_ones():
    # the band's constants are _cofactors and _jacobi_g themselves, run
    # with every - turned into +: f's, and 4 half_k for each single edge
    ones = [_Majorant(1)] * 6
    f, cofactors = _cofactors(ones)
    assert f.v == _Screen.MAJORANT_F == 116
    assert [_jacobi_g(ones, cofactors, EdgeSubset((k,))).v
            for k in range(6)] == [4 * h for h in _Screen.MAJORANT_HALF] \
        == [4 * h for h in (43, 43, 43, 15, 15, 15)]
    # a beta's g majorant sums its edges'
    for beta in ALL_BETAS:
        assert _jacobi_g(ones, cofactors, beta).v == 4 * sum(
            _Screen.MAJORANT_HALF[k] for k in beta.indices)


# the screens the soundness tests hold to the oracle: f with the K4 g,
# and f with a 2-edge g
SCREENED_BETAS = (EdgeSubset.full(), EdgeSubset.parse("12,34"))


def assert_screen_decides_as_the_oracle(beta, points):
    """The screen's mask is the exact one, and where its band decides
    f's or g's sign, the exact value has that sign.  Returns how many
    signs of f and of g the band decided."""
    screen = _Screen(beta)
    f_exact = exact_values(f_polynomial(), points)
    g_exact = exact_values(directional_derivative(beta), points)
    assert screen.candidates(points).tolist() == [
        a > 0 and b < 0 for a, b in zip(f_exact, g_exact)]
    bands = screen.bands(points)
    if bands is None:
        return 0, 0
    f, g, band_f, band_g = bands
    for got, band, want in ((f, band_f, f_exact), (g, band_g, g_exact)):
        for i in np.flatnonzero(abs(got) > band):
            assert sign(got[i]) == sign(want[i])
    return np.sum(abs(f) > band_f), np.sum(abs(g) > band_g)


@given(int_points)
@example((0, 0, 0, 0, 0, 0))
@example((-40, 40, -40, 40, -40, 40))
@settings(max_examples=60)
def test_the_screen_is_exact_at_small_integer_points(pt):
    # every float the screen makes from coordinates up to 40 is an integer
    # below 2^53, so F and G are f and g exactly; the origin lies below
    # LOW, so the screen leaves it to exact evaluation
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
def test_the_screen_decides_only_as_the_exact_signs_do(rows, scale):
    points = np.array(rows) * scale
    for beta in SCREENED_BETAS:
        assert_screen_decides_as_the_oracle(beta, points)


def test_the_screen_near_the_zero_sets_decides_only_as_the_oracle():
    # bisect the screen's float sign of f and of g between random points
    # whose signs differ, then step off the crossing by 2^-k of the
    # segment for k = 4..52: the steps straddle each band's edge, so the
    # band must decide some of these points and leave others to exact
    # evaluation, and the exact oracle holds it to both
    rng = np.random.default_rng(3)
    for beta in SCREENED_BETAS:
        screen = _Screen(beta)
        for i in range(2):
            a, b = rng.random((2, 400, 6)) * 8.0
            sa, sb = screen.bands(a)[i] > 0, screen.bands(b)[i] > 0
            a, b, sa = a[sa != sb][:20], b[sa != sb][:20], sa[sa != sb][:20]
            lo, hi = np.zeros(len(a)), np.ones(len(a))
            for _ in range(60):
                mid = (lo + hi) / 2
                same = (screen.bands(a + mid[:, None] * (b - a))[i] > 0) == sa
                lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
            steps = np.array([s * 2.0 ** -k for k in range(4, 53)
                              for s in (-1.0, 1.0)] + [0.0])
            t = np.clip(lo[:, None] + steps[None, :], 0.0, 1.0)
            points = (a[:, None, :] + t[..., None] * (b - a)[:, None, :]) \
                .reshape(-1, 6)
            decided = assert_screen_decides_as_the_oracle(beta, points)[i]
            assert 0 < decided < len(points)
            # scaled far down, these products would underflow into wrong
            # signs, so the band decides none of them; a power of two
            # keeps every exact sign
            scaled = points * 2.0 ** -178
            assert screen.bands(scaled) is None
            assert np.array_equal(screen.candidates(scaled),
                                  screen.candidates(points))


# integer points where f or g is exactly 0, each with the beta it is for:
# f = 0 with g < 0, g = 0 with f > 0, and f = g = 0 away from the origin
DEGENERATE = ((EdgeSubset.parse("12,34"), (2, 1, 3, 2, 4, 4)),
              (EdgeSubset.full(), (0, 0, 2, 2, 0, 3)),
              (EdgeSubset.parse("12,34"), (0, 0, 1, 1, 2, 0)),
              (EdgeSubset.full(), (0, 0, 0, 0, 0, 1)))


@pytest.mark.parametrize("beta, point", DEGENERATE)
def test_exactly_degenerate_points_are_decided_exactly(
        monkeypatch, beta, point):
    f_exact, cofactors = _cofactors(point)
    g_exact = _jacobi_g(point, cofactors, beta)
    assert 0 in (f_exact, g_exact) and f_exact >= 0 >= g_exact
    ran = []
    exact = _Screen.exact

    def spy(self, row):
        ran.append(row.copy())
        return exact(self, row)

    monkeypatch.setattr(anti_certification._Screen, "exact", spy)
    screen = _Screen(beta)
    for scale in (1.0, 2.0 ** 20):
        row = np.array([point], dtype=np.float64) * scale
        f, g, band_f, band_g = screen.bands(row)
        assert abs(f[0]) <= band_f[0] or f_exact
        assert abs(g[0]) <= band_g[0] or g_exact
        ran.clear()
        assert screen.candidates(row).tolist() == [False]
        assert [r.tobytes() for r in ran] == [row[0].tobytes()]
    # among the points of a campaign block, these two rows alone are
    # decided exactly, and the others keep the mask they have without them
    cell = build_partitions().fortyeight["D_3111"]
    points = barycentric_block(random.Random(9), 1024) @ np.array(
        cell.vertices, dtype=np.float64)
    points[[5, 700]] = point
    ran.clear()
    mask = screen.candidates(points)
    assert [r.tobytes() for r in ran] == [points[5].tobytes(),
                                          points[700].tobytes()]
    assert not mask[[5, 700]].any()
    assert np.array_equal(np.delete(mask, [5, 700]), screen.candidates(
        np.delete(points, [5, 700], axis=0)))


def test_a_points_mask_does_not_depend_on_its_place_in_its_block(
        monkeypatch):
    # the 200,000-trial search of p1324b2 for 12,13,14,23,24 finds
    # nothing, and its band leaves points open in many blocks; each such
    # point, alone as a one-row block, must get the mask it got in its
    # block, and that mask must be the exact one
    blocks = []
    candidates = _Screen.candidates

    def spy(self, points):
        blocks.append(points.copy())
        return candidates(self, points)

    monkeypatch.setattr(anti_certification._Screen, "candidates", spy)
    beta = EdgeSubset.parse("12,13,14,23,24")
    assert anti_certify(decoration("p1324b2"), beta, trials=200000) is None
    monkeypatch.undo()
    screen = _Screen(beta)
    opened = 0
    for points in blocks:
        f, g, band_f, band_g = screen.bands(points)
        candidate = (f > band_f) & (g < -band_g)
        undecided = np.flatnonzero(
            ~(candidate | (f < -band_f) | (g > band_g)))
        if not len(undecided):
            continue
        opened += len(undecided)
        mask = screen.candidates(points)
        for i in undecided:
            assert mask[i] == screen.candidates(points[i:i + 1])[0]
        assert np.array_equal(mask[undecided],
                              exact_mask(beta, points[undecided]))
    assert opened > 0


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
