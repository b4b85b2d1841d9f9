"""Partition, relabeling-group, and chamber-membership checks."""

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from _bareiss import _int_det
from tetravol import chamber_geometry
from tetravol.cayley_menger import (AXIS_PAIRS, FACES, VERTEX_EDGES,
                                    EdgeSubset, f_polynomial)
from tetravol.case_suite_cli import case_registry
from tetravol.chamber_geometry import (
    A_MID, B_MID, CENTER, EXTREME_A, EXTREME_B, Decoration, LatticeSimplex6,
    Partitions, all_relabelings, apply_relabel, axis_image,
    axis_sums,
    build_partitions, cell_description_membership, certified_chambers,
    chambers_containing, decoration, decorations, even_relabelings,
    in_cone, midpoint, partition_check,
    _description, relabel_action, relabel_sign, sample_x24_numerators,
    stabilizer, verify_barycenter_conditions, vertex_sums,
)

IDENTITY = (1, 2, 3, 4)
EXTREMA = list(EXTREME_A.values()) + list(EXTREME_B.values())


def compose(sigma, tau):
    """sigma after tau."""
    return tuple(sigma[tau[i] - 1] for i in range(4))


def invert(sigma):
    out = [0] * 4
    for i in range(4):
        out[sigma[i] - 1] = i + 1
    return tuple(out)


def barycenter(cell):
    return tuple(Fraction(sum(col), 6) for col in zip(*cell.vertices))


def sample_x24(rng, n):
    """n exact rational points of X24, as convex combos of the extrema.

    The Fraction form of ``sample_x24_numerators``, and its oracle.
    """
    out = []
    for _ in range(n):
        weights = [rng.randrange(0, 1000) for _ in EXTREMA]
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        out.append(tuple(
            Fraction(sum(w * p[c] for w, p in zip(weights, EXTREMA)), total)
            for c in range(6)))
    return out


def all_cells(parts):
    return {name: cell for level in (parts.three, parts.four, parts.twelve,
                                     parts.fortyeight)
            for name, cell in level.items()}


def test_extrema_listing():
    """A_i has axis sum i zero and B_j vertex sum j largest."""
    assert len(set(EXTREMA)) == 7
    for i, p in EXTREME_A.items():
        assert [k + 1 for k, a in enumerate(axis_sums(p)) if a == 0] == [i]
    for j, p in EXTREME_B.items():
        vsum = vertex_sums(p)
        assert [v + 1 for v, x in enumerate(vsum) if x == max(vsum)] == [j]


def test_extrema_and_midpoints_are_degenerate():
    f = f_polynomial()
    for p in EXTREMA:
        assert f.evaluate(p) == 0
    for p in B_MID.values():
        assert f.evaluate(p) == 0
    for p in A_MID.values():
        assert f.evaluate(p) == -93312


def test_midpoints_are_actual_midpoints():
    assert A_MID[(1, 2)] == midpoint(EXTREME_A[1], EXTREME_A[2])
    assert B_MID[(3, 4)] == midpoint(EXTREME_B[3], EXTREME_B[4])
    with pytest.raises(ValueError):
        midpoint((0,) * 6, (1,) * 6)


def test_extrema_average_to_center():
    acc = [0] * 6
    for p in EXTREMA:
        for k in range(6):
            acc[k] += p[k]
    assert tuple(Fraction(a, 7) for a in acc) == CENTER
    # A-points weight 4, B-points weight 3 in X24
    weighted = [0] * 6
    for i in (1, 2, 3):
        for k in range(6):
            weighted[k] += 4 * EXTREME_A[i][k]
    for j in (1, 2, 3, 4):
        for k in range(6):
            weighted[k] += 3 * EXTREME_B[j][k]
    assert tuple(Fraction(v, 24) for v in weighted) == CENTER


def test_sum_identities():
    for p in [CENTER, EXTREME_A[1], EXTREME_B[2], B_MID[(1, 4)]]:
        assert sum(axis_sums(p)) == sum(p)
        assert sum(vertex_sums(p)) == 2 * sum(p)
    assert axis_sums(CENTER) == (8, 8, 8)
    assert vertex_sums(CENTER) == (12, 12, 12, 12)
    assert axis_sums(EXTREME_A[1]) == (0, 12, 12)


def test_sums_equal_the_edge_tables():
    # the written-out sums against VERTEX_EDGES and AXIS_PAIRS, on ints
    # and on fractions
    rng = random.Random(11)
    points = [tuple(rng.randint(-50, 50) for _ in range(6))
              for _ in range(200)]
    points += [tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                     for _ in range(6)) for _ in range(50)]
    for p in points:
        assert vertex_sums(p) == tuple(sum(p[k] for k in VERTEX_EDGES[v])
                                       for v in (1, 2, 3, 4))
        assert axis_sums(p) == tuple(p[a] + p[b] for a, b in AXIS_PAIRS)


def holds_as_written(d, asum, vsum):
    """The chamber system of a decoration, read off its definition."""
    a_out, a_mid, a_dis = (asum[k] for k in d.axes)
    return (a_out >= a_mid and a_out >= a_dis and a_dis <= a_mid
            and vsum[d.black - 1] == min(vsum)
            and vsum[d.path[0] - 1] <= vsum[d.path[1] - 1])


def test_holds_equals_the_written_system():
    # small coordinates, so that axis and vertex sums often tie, on ints
    # and on fractions, over all 48 decorations
    rng = random.Random(13)
    points = [tuple(rng.randint(0, 3) for _ in range(6)) for _ in range(300)]
    points += [tuple(Fraction(rng.randint(0, 6), rng.randint(1, 3))
                     for _ in range(6)) for _ in range(100)]
    points += [CENTER] + EXTREMA
    decs = decorations()
    assert len(decs) == 48
    seen = set()
    for p in points:
        asum, vsum = axis_sums(p), vertex_sums(p)
        for d in decs:
            want = holds_as_written(d, asum, vsum)
            assert d.holds(asum, vsum) == want
            seen.add(want)
    assert seen == {True, False}


def test_in_cone():
    assert in_cone(CENTER)
    for p in EXTREMA:
        assert in_cone(p)
    assert not in_cone((-1, 4, 4, 4, 4, 4))
    # violates a face triangle condition outright
    assert not in_cone((24, 0, 0, 0, 0, 0))


def test_in_cone_needs_no_separate_sign_test():
    # a <= b + c for all three edges of a face is 2 * max <= sum
    for p in itertools.product(range(-3, 4), repeat=6):
        faces = all(2 * max(p[s] for s in slots) <= sum(p[s] for s in slots)
                    for slots in FACES.values())
        assert in_cone(p) == (min(p) >= 0 and faces)


# -- the relabeling group ------------------------------------------------

def test_group_sizes():
    full = all_relabelings()
    assert len(full) == 24
    assert len(set(full)) == 24
    evens = even_relabelings()
    assert len(evens) == 12
    assert all(relabel_sign(s) == 1 for s in evens)
    assert sum(1 for s in full if relabel_sign(s) == -1) == 12


def test_group_axioms():
    full = all_relabelings()
    for s in full:
        assert compose(s, invert(s)) == IDENTITY
        assert compose(invert(s), s) == IDENTITY
    s, t = full[5], full[17]
    p = (1, 2, 3, 4, 5, 6)
    assert apply_relabel(compose(s, t), p) in (
        apply_relabel(s, apply_relabel(t, p)),
        apply_relabel(t, apply_relabel(s, p)),
    )


def test_relabel_action_matches_apply():
    # coordinate k of the source lands in slot perm[k] of the image
    p = (10, 20, 30, 40, 50, 60)
    for s in all_relabelings():
        perm = relabel_action(s)
        out = apply_relabel(s, p)
        assert tuple(out[perm[k]] for k in range(6)) == p


def test_relabel_sign_is_multiplicative():
    full = all_relabelings()
    for s in full[:6]:
        for t in full[10:16]:
            assert relabel_sign(compose(s, t)) == (
                relabel_sign(s) * relabel_sign(t))


def test_axis_image_is_a_permutation():
    for s in all_relabelings():
        assert sorted(axis_image(s)) == [1, 2, 3]


def test_stabilizer_sizes_and_orbit_products():
    expected = {
        "12": 4, "12,13": 2, "12,34": 8, "12,13,14": 6,
        "12,14,23": 2, "12,13,24,34": 8, "12,13,23": 6,
        "12,13,14,23,24,34": 24,
    }
    for spec, size in expected.items():
        beta = EdgeSubset.parse(spec)
        stab = stabilizer(tuple(sorted(beta.indices)))
        assert len(stab) == size
        # orbit-stabilizer over the 24 relabelings
        orbit = set()
        for s in all_relabelings():
            perm = relabel_action(s)
            orbit.add(frozenset(perm[k] for k in beta.indices))
        assert len(orbit) * size == 24
        # every stabilizer element fixes the edge set
        for s in stab:
            perm = relabel_action(s)
            assert {perm[k] for k in beta.indices} == beta.indices


# -- a cell-by-cell construction, the oracle for ``Partitions`` ----------

_D_SEEDS = {
    (1, 1): (CENTER, EXTREME_B[2], B_MID[(3, 4)], A_MID[(2, 3)],
             EXTREME_B[3], EXTREME_A[2]),
    (1, 2): (CENTER, EXTREME_B[2], B_MID[(3, 4)], A_MID[(2, 3)],
             EXTREME_B[3], EXTREME_A[3]),
    (2, 1): (CENTER, EXTREME_B[2], B_MID[(3, 4)], A_MID[(2, 3)],
             EXTREME_B[4], EXTREME_A[2]),
    (2, 2): (CENTER, EXTREME_B[2], B_MID[(3, 4)], A_MID[(2, 3)],
             EXTREME_B[4], EXTREME_A[3]),
}


def cell_transporter(i, j):
    """The unique even relabeling taking cell (1,1) to cell (i,j).

    Even relabelings act freely and transitively on (axis, vertex)
    pairs, sending the axis-1-largest, vertex-1-smallest cell to the
    axis-i-largest, vertex-j-smallest one.
    """
    for s in even_relabelings():
        if s[0] == j and axis_image(s)[0] == i:
            return s
    raise RuntimeError("no transporter for cell (%d, %d)" % (i, j))


def oracle_cells():
    """Name -> vertex tuple at each level, built cell by cell as listed."""
    def omit(extrema, x):
        return [p for y, p in extrema.items() if y != x]
    a, b = list(EXTREME_A.values()), list(EXTREME_B.values())
    levels = {"three": {}, "four": {}, "twelve": {}, "fortyeight": {}}
    for i in (1, 2, 3):
        levels["three"]["A_%d" % i] = tuple(omit(EXTREME_A, i) + b)
    for j in (1, 2, 3, 4):
        levels["four"]["B_%d" % j] = tuple(a + omit(EXTREME_B, j))
    for i in (1, 2, 3):
        for j in (1, 2, 3, 4):
            levels["twelve"]["C_%d%d" % (i, j)] = tuple(
                [CENTER] + omit(EXTREME_A, i) + omit(EXTREME_B, j))
    for i in (1, 2, 3):
        for j in (1, 2, 3, 4):
            s = cell_transporter(i, j)
            for (k, l), seed in _D_SEEDS.items():
                levels["fortyeight"]["D_%d%d%d%d" % (i, j, k, l)] = tuple(
                    apply_relabel(s, v) for v in seed)
    return levels


def test_cell_transporter_contract():
    assert cell_transporter(1, 1) == IDENTITY
    seen = set()
    for i in (1, 2, 3):
        for j in (1, 2, 3, 4):
            t = cell_transporter(i, j)
            assert relabel_sign(t) == 1
            assert t[0] == j
            assert axis_image(t)[0] == i
            seen.add(t)
    assert seen == set(even_relabelings())


# -- partitions ----------------------------------------------------------

def test_partitions_match_the_oracle_cell_for_cell():
    parts = build_partitions()
    oracle = oracle_cells()
    for level, cells in oracle.items():
        built = getattr(parts, level)
        # names, dict order and vertex order all pinned
        assert list(built) == list(cells)
        for name, vertices in cells.items():
            assert built[name].name == name
            assert built[name].vertices == vertices
    # each chamber keeps the one decoration all its vertices satisfy
    table = parts.decoration_table()
    assert list(table) == list(parts.fortyeight)
    for name, vertices in oracle["fortyeight"].items():
        ids = set.intersection(*(set(chambers_containing(v))
                                 for v in vertices))
        assert ids == {table[name].id}


def chamber_system(d):
    """A decoration's weak system as pairs (x, y), each meaning x >= y,
    of axis sums ("a", k) and vertex sums ("v", k), k 0-based."""
    out, mid, dis = (("a", k) for k in d.axes)
    black, white, second = (("v", k - 1)
                            for k in (d.black, d.path[0], d.path[1]))
    return ({(out, mid), (out, dis), (mid, dis), (second, white)}
            | {(("v", k), black) for k in range(4) if ("v", k) != black})


def test_chamber_systems_exclude_each_other():
    # the pairs are each decoration's system
    rng = random.Random(29)
    points = [tuple(rng.randint(0, 3) for _ in range(6)) for _ in range(200)]
    for p in points:
        asum, vsum = axis_sums(p), vertex_sums(p)
        sums = {("a", k): asum[k] for k in range(3)}
        sums.update((("v", k), vsum[k]) for k in range(4))
        for d in decorations():
            assert d.holds(asum, vsum) == all(
                sums[x] >= sums[y] for x, y in chamber_system(d))
    # of any two systems, one holds an inequality that the other holds
    # reversed, so their chambers meet only where it is an equality
    pairs = list(itertools.combinations(map(chamber_system, decorations()),
                                        2))
    assert len(pairs) == 1128
    for s, t in pairs:
        assert any((y, x) in t for x, y in s)


def test_a_repeated_chamber_name_raises(monkeypatch):
    evens = even_relabelings()
    monkeypatch.setattr(chamber_geometry, "even_relabelings",
                        lambda: evens + evens[:1])
    with pytest.raises(RuntimeError, match="built twice"):
        Partitions()


def test_partition_cell_names():
    parts = build_partitions()
    assert sorted(parts.three) == ["A_1", "A_2", "A_3"]
    assert sorted(parts.four) == ["B_1", "B_2", "B_3", "B_4"]
    assert len(parts.twelve) == 12
    assert len(parts.fortyeight) == 48
    assert sum(len(cells) for cells in (parts.three, parts.four,
                                        parts.twelve, parts.fortyeight)) == 67


def test_volumes_agree_at_every_level():
    parts = build_partitions()
    for cells in (parts.three, parts.four, parts.twelve, parts.fortyeight):
        assert sum(s.volume_scaled() for s in cells.values()) == 147456
        assert all(s.volume_scaled() > 0 for s in cells.values())


def test_simplex_barycentric_roundtrip():
    parts = build_partitions()
    for cell in [parts.three["A_2"], parts.four["B_1"], parts.twelve["C_31"],
                 parts.fortyeight["D_2412"]]:
        bc = barycenter(cell)
        assert cell.contains(bc)
        assert all(cell.contains(v) for v in cell.vertices)
        # 2*bc - v has barycentric weight -2/3 at v, all others 1/3
        for v in cell.vertices:
            assert not cell.contains(tuple(2 * b - x for b, x in zip(bc, v)))


def test_simplex_relabeled_preserves_volume():
    parts = build_partitions()
    cell = parts.twelve["C_11"]
    for s in all_relabelings()[:8]:
        image = LatticeSimplex6(
            cell.name, [apply_relabel(s, v) for v in cell.vertices])
        assert image.volume_scaled() == cell.volume_scaled()
        assert frozenset(image.vertices) == {
            apply_relabel(s, v) for v in cell.vertices}


def test_decorations_biject_with_the_finest_cells():
    decs = decorations()
    assert len(decs) == 48
    assert len({d.id for d in decs}) == 48
    parts = build_partitions()
    names = {parts.simplex_for_decoration(d).name for d in decs}
    assert names == set(parts.fortyeight)


def test_chamber_maps_are_inverse():
    parts = build_partitions()
    table = parts.decoration_table()
    assert table.keys() == parts.fortyeight.keys()
    for name, cell in parts.fortyeight.items():
        assert parts.simplex_for_decoration(table[name]) is cell


def test_chamber_maps_are_built_without_a_membership_search(monkeypatch):
    def searched(*args):
        raise AssertionError("a decoration's system was evaluated")
    monkeypatch.setattr(Decoration, "membership", searched)
    monkeypatch.setattr(Decoration, "holds", searched)
    # a fresh instance: build_partitions() is cached
    parts = Partitions()
    table = parts.decoration_table()
    assert len(table) == 48
    for d in decorations():
        assert table[parts.simplex_for_decoration(d).name] is d


def test_chamber_table_is_built_once():
    decs = decorations()
    assert decorations() is decs
    for d in decs:
        assert decoration(d.id) is d
    with pytest.raises(KeyError):
        decoration("p1234b9")


def test_center_lies_in_every_chamber():
    assert len(chambers_containing(CENTER)) == 48
    for d in decorations():
        assert d.membership(CENTER)


def test_generic_points_land_in_exactly_one_chamber():
    rng = random.Random(11)
    for p in sample_x24(rng, 12):
        assert len(chambers_containing(p)) == 1


def test_membership_agrees_with_cell_descriptions():
    rng = random.Random(5)
    parts = build_partitions()
    decs = decorations()
    for p in sample_x24(rng, 6):
        for d in decs[:10]:
            name = parts.simplex_for_decoration(d).name
            assert d.membership(p) == (
                cell_description_membership(name, p))


def test_numerator_samples_are_the_fraction_samples():
    rng, oracle_rng = random.Random(17), random.Random(17)
    points = sample_x24_numerators(rng, 200)
    assert [tuple(Fraction(x, total) for x in ints)
            for ints, total in points] == sample_x24(oracle_rng, 200)
    # the same seven draws per point
    assert rng.getstate() == oracle_rng.getstate()
    assert all(total > 0 and sum(ints) == 24 * total
               for ints, total in points)


def test_description_tests_agree_with_cell_descriptions():
    cells = all_cells(build_partitions())
    assert len(cells) == 67
    tests = {name: _description(name) for name in cells}
    seen = set()
    for ints, total in sample_x24_numerators(random.Random(19), 40):
        fraction = tuple(Fraction(x, total) for x in ints)
        asum, vsum = axis_sums(ints), vertex_sums(ints)
        for name, test in tests.items():
            inside = test(asum, vsum)
            assert inside == cell_description_membership(name, fraction)
            # each cell's description cuts out its hull
            assert inside == cells[name].contains(fraction)
            seen.add(inside)
    assert seen == {True, False}
    with pytest.raises(KeyError):
        _description("E_1")


def test_numerator_containment_agrees_with_contains_on_every_cell():
    cells = all_cells(build_partitions())
    points = sample_x24_numerators(random.Random(23), 40)
    for c in cells.values():
        # each vertex over 1 and over 3, and the barycenter over 6
        points += [(v, 1) for v in c.vertices]
        points += [(tuple(3 * x for x in v), 3) for v in c.vertices]
        points.append((tuple(map(sum, zip(*c.vertices))), 6))
    hits = 0
    for c in cells.values():
        for ints, scale in points:
            inside = c.contains_scaled(ints, scale)
            assert inside == c.contains(
                tuple(Fraction(x, scale) for x in ints)), (c.name, ints)
            hits += inside
    assert 0 < hits < len(cells) * len(points)


def test_partition_check_small_run():
    assert partition_check(samples=300, seed=3, cross_check=300) == {
        "samples": 300, "seed": 3,
        "misses": {"three": 0, "four": 0, "twelve": 0, "fortyeight": 0},
        "cross_checked": 300, "cross_mismatches": 0, "ok": True}


def test_partition_check_rejects_no_samples_and_negative_cross_checks():
    # a run that checks no point must not report ok, and a negative
    # cross-check count must not be reported as one
    for samples, cross_check in ((0, 0), (0, 200), (-1, 0), (30, -1),
                                 (1, -200)):
        with pytest.raises(ValueError, match="need samples >= 1"):
            partition_check(samples=samples, cross_check=cross_check)
    # the least values each bound admits still run
    assert partition_check(samples=1, cross_check=0) == {
        "samples": 1, "seed": 0,
        "misses": {"three": 0, "four": 0, "twelve": 0, "fortyeight": 0},
        "cross_checked": 0, "cross_mismatches": 0, "ok": True}
    assert partition_check(samples=1, cross_check=1)["cross_checked"] == 1


def test_partition_check_counts_a_chamber_that_rejects_everything(
        monkeypatch):
    dec = build_partitions().decoration_table()["D_1111"]
    monkeypatch.setattr(dec, "holds", lambda asum, vsum: False)
    out = partition_check(samples=300, seed=3, cross_check=30)
    assert out["misses"]["fortyeight"] > 0
    assert out["cross_mismatches"] > 0
    assert out["ok"] is False


def test_partition_check_counts_containment_disagreements(monkeypatch):
    monkeypatch.setattr(LatticeSimplex6, "contains_scaled",
                        lambda self, ints, scale: False)
    out = partition_check(samples=30, seed=3, cross_check=30)
    assert out["misses"] == {
        "three": 0, "four": 0, "twelve": 0, "fortyeight": 0}
    assert out["cross_mismatches"] > 0
    assert out["ok"] is False


def _cramer_contains(cell, p):
    """Reference containment: one Bareiss determinant per Cramer ratio."""
    fr = [Fraction(x) for x in p]
    denom = math.lcm(*(x.denominator for x in fr))
    ints = [int(x * denom) for x in fr]
    if sum(ints) != 24 * denom:
        return False
    matrix = [[v[r] for v in cell.vertices] for r in range(6)]
    d = _int_det(matrix)
    return all(_int_det([row[:j] + [x] + row[j + 1:]
                         for row, x in zip(matrix, ints)]) * d >= 0
               for j in range(6))


def test_contains_agrees_with_cramer_on_every_cell():
    parts = build_partitions()
    cells = [c for level in (parts.three, parts.four, parts.twelve,
                             parts.fortyeight) for c in level.values()]
    on_plane = set(EXTREMA) | {CENTER, (-2, 6, 6, 6, 6, 2)}
    for c in cells:
        on_plane.add(barycenter(c))
        on_plane.update(c.vertices)
    on_plane.update(sample_x24(random.Random(13), 50))
    off_plane = [tuple(x + 1 for x in CENTER), tuple(2 * x for x in CENTER),
                 tuple(x / 2 for x in barycenter(cells[0])),
                 (9, 9, 9, 0, 0, 0), (-1, 5, 5, 5, 5, 4)]
    hits = 0
    for c in cells:
        for p in on_plane:
            inside = c.contains(p)
            assert inside == _cramer_contains(c, p), (c.name, p)
            hits += inside
        for p in off_plane:
            assert not c.contains(p) and not _cramer_contains(c, p)
        with pytest.raises(TypeError, match="int or Fraction"):
            c.contains((4.0, 4, 4, 4, 4, 4))
    assert 0 < hits < len(cells) * len(on_plane)


def _minor_weight_rows(cell):
    """Reference weight rows: sign(det V) times each cofactor of V, one
    Bareiss determinant per 5x5 minor."""
    vs = cell.vertices
    sign = 1 if _int_det(vs) > 0 else -1
    return tuple(
        tuple(sign * (-1) ** (r + j) * _int_det(
            [v[:r] + v[r + 1:] for k, v in enumerate(vs) if k != j])
            for r in range(6))
        for j in range(6))


def _partition_and_registry_simplices():
    cells = list(all_cells(build_partitions()).values())
    registry = [s for spec in case_registry().values()
                for s in spec.simplices.values()]
    assert (len(cells), len(registry)) == (67, 16)
    return cells + registry


def test_weight_rows_equal_the_cofactors_minor_by_minor():
    simplices = _partition_and_registry_simplices()
    for cell in simplices:
        assert cell._weight_rows == _minor_weight_rows(cell), cell.name
    # elimination without swaps meets a zero pivot exactly when a leading
    # principal minor of V vanishes; most cells take the swap branch
    swapped = sum(
        any(_int_det([[v[r] for v in cell.vertices[:k]] for r in range(k)])
            == 0 for k in range(1, 6))
        for cell in simplices[:67])
    assert swapped == 53


def test_weight_rows_times_vertices_is_det_times_identity():
    for cell in _partition_and_registry_simplices():
        d = abs(_int_det(cell.vertices))
        assert d > 0
        for j, row in enumerate(cell._weight_rows):
            for k, v in enumerate(cell.vertices):
                assert sum(map(operator.mul, row, v)) == d * (j == k), \
                    (cell.name, j, k)


def test_degenerate_simplex_raises_naming_it():
    flat = LatticeSimplex6("flat", (CENTER, CENTER, EXTREME_B[2],
                                    EXTREME_B[3], EXTREME_B[4],
                                    EXTREME_A[2]))
    with pytest.raises(ValueError, match="degenerate simplex flat"):
        flat.contains(CENTER)
    # five points on one line through the center and a sixth off it
    line = [tuple(4 + t * x for x in (1, -1, 0, 0, 0, 0)) for t in range(5)]
    with pytest.raises(ValueError, match="degenerate simplex line"):
        LatticeSimplex6("line", line + [EXTREME_B[1]])._weight_rows


def test_simplex_vertices_must_be_ints_on_the_sum_24_plane():
    cell = build_partitions().fortyeight["D_1111"]
    doubled = [tuple(2 * x for x in v) for v in cell.vertices]
    with pytest.raises(ValueError, match="not six ints summing to 24"):
        LatticeSimplex6("doubled", doubled)
    off_plane = [cell.vertices[0][:5] + (cell.vertices[0][5] + 1,)]
    with pytest.raises(ValueError, match="of shifted is not six ints"):
        LatticeSimplex6("shifted", off_plane + list(cell.vertices[1:]))
    rational = [tuple(Fraction(x) for x in cell.vertices[0])]
    with pytest.raises(ValueError, match="not six ints summing to 24"):
        LatticeSimplex6("rational", rational + list(cell.vertices[1:]))
    # the same vertices as ints pass
    assert LatticeSimplex6("copy", cell.vertices)._weight_rows == \
        cell._weight_rows


def test_barycenter_conditions_report():
    out = verify_barycenter_conditions()
    assert out["face_equality_holds"] is True
    assert out["vertex_tie_holds"] is True
    assert out["extrema_average_to_center"] is True


def test_certified_chamber_counts():
    expected = {
        "12": 12, "12,13": 4, "12,34": 32, "12,13,14": 12,
        "12,14,23": 8, "12,13,24,34": 16, "12,13,23": 36,
        "12,13,14,23,24,34": 48,
    }
    for spec, count in expected.items():
        assert len(certified_chambers(EdgeSubset.parse(spec))) == count


def test_unfriendly_types_have_no_certified_region():
    for spec in ["12,13,14,23", "12,13,14,23,24"]:
        with pytest.raises(ValueError):
            certified_chambers(EdgeSubset.parse(spec))


def test_type_and_region_follow_every_relabeling():
    """Relabeling beta keeps its type and carries its region along.

    The types are exactly the relabeling orbits of edge subsets, so with
    the per-type examples and counts this pins every subset's tag and
    certified region.
    """
    for n in range(1, 7):
        for idx in itertools.combinations(range(6), n):
            beta = EdgeSubset(idx)
            try:
                region = certified_chambers(beta)
            except ValueError:
                region = None
            for sigma in all_relabelings():
                perm = relabel_action(sigma)
                image = EdgeSubset(perm[k] for k in idx)
                assert image.classify() == beta.classify()
                if region is None:
                    with pytest.raises(ValueError):
                        certified_chambers(image)
                else:
                    assert ({d.relabeled(sigma).id for d in region}
                            == {d.id for d in certified_chambers(image)})


def test_volume_is_det_v_over_24_read_off_the_cofactor_rows():
    # the volume the cofactor rows give against two determinants of the
    # reference: V's, and that of the edge matrix without its last
    # coordinate, which it equals
    for cell in _partition_and_registry_simplices():
        v0 = cell.vertices[0]
        edges = [[v[c] - v0[c] for c in range(5)] for v in cell.vertices[1:]]
        assert 24 * cell.volume_scaled() == abs(_int_det(cell.vertices)), \
            cell.name
        assert cell.volume_scaled() == abs(_int_det(edges)), cell.name
