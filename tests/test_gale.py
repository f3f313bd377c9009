import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from galeproj import gale, lp
from galeproj.errors import DimensionMismatch, DuplicateLabels, NotGale, TooLargeForExact, UnknownLabel
from galeproj.gale import (
    FACE_CARD_CAP,
    VectorConfig,
    gale_faces_of_card,
    general_position,
    positively_dependent,
    positively_spanning,
)
from galeproj.linalg import mat_vec, rank, vec
from galeproj.polytopes import hull_vertex_indices
from helpers import (
    farkas_dependent,
    signed_systems_spanning,
    spans_positively_primal,
    strictly_positive_dependence,
    unimodular_matrix,
    vpoly_face_oracle,
)
from test_lp import oracle_entry


def coupling_config(e):
    e = Fraction(e)
    return VectorConfig([(1, 0), (1, 0), (-1, -e), (-e, -1), (0, 1), (0, 1)])


class TestPositivelySpanning:
    def test_symmetric_frame(self):
        assert positively_spanning([(1, 0), (0, 1), (-1, -1)])

    def test_half_plane_unreachable(self):
        assert not positively_spanning([(1, 0), (-1, 0), (0, 1)])

    def test_strict_survivor_subset(self):
        subset = coupling_config(Fraction(1, 4)).subset([2, 3, 5, 6])
        assert positively_spanning(subset)

    def test_failing_subset(self):
        subset = coupling_config(Fraction(1, 4)).subset([1, 2, 5, 6])
        assert not positively_spanning(subset)

    def test_matches_primal_cone_oracle(self):
        rng = random.Random(61)
        agree_true = agree_false = 0
        for _ in range(60):
            e = rng.randint(1, 3)
            m = rng.randint(1, 6)
            vectors = [
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(e)) for _ in range(m)
            ]
            got = positively_spanning(vectors)
            assert got == spans_positively_primal(vectors)
            agree_true += got
            agree_false += not got
        assert agree_true and agree_false


class TestSpanningOracle:
    """One rank and one strict system decide what 2e strict systems decided."""

    def test_matches_the_signed_systems(self, monkeypatch):
        ranks = []
        original = gale.rank

        def recording(m):
            ranks.append((original(m), len(m[0])))
            return ranks[-1][0]

        monkeypatch.setattr(gale, "rank", recording)
        rng = random.Random(1954)
        verdicts = Counter()
        for _ in range(300):
            e = rng.randint(1, 3)
            vectors = [tuple(oracle_entry(rng) for _ in range(e)) for _ in range(rng.randint(1, 7))]
            if len(vectors) > 1 and rng.random() < 0.3:
                vectors[rng.randrange(len(vectors))] = rng.choice(vectors)
            if rng.random() < 0.2:
                vectors[rng.randrange(len(vectors))] = (0,) * e
            got = positively_spanning(vectors)
            assert got == signed_systems_spanning(vectors), vectors
            verdicts[got] += 1
        assert verdicts[True] > 20 and verdicts[False] > 20
        # the rank test alone rejects some configurations
        assert sum(r < e for r, e in ranks) > 20


class TestPositivelyDependent:
    def test_opposite_pair(self):
        assert positively_dependent([(1, 0), (-1, 0)])

    def test_independent_pair(self):
        assert not positively_dependent([(1, 0), (0, 1)])

    def test_positive_quadrant_subset(self):
        assert not positively_dependent([(1, 0), (1, 0), (0, 1), (0, 1)])

    def test_spanning_implies_dependent(self):
        rng = random.Random(62)
        for _ in range(40):
            e = rng.randint(1, 3)
            vectors = [
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(e))
                for _ in range(rng.randint(1, 6))
            ]
            if positively_spanning(vectors):
                assert positively_dependent(vectors)


def planar_configs(seed, count):
    """Seeded vectors in R^2 built to meet every case of the angular sort:
    a few drawn rays, each repeated as positive `Fraction` multiples, some
    negated into opposite pairs, and now and then zero vectors, a single
    vector, or a collinear set of multiples of one ray of both signs."""
    rng = random.Random(seed)
    for _ in range(count):
        kind = rng.random()
        if kind < 0.1:
            yield [tuple(oracle_entry(rng) for _ in range(2))]
            continue
        if kind < 0.25:
            # multiples of one ray, both signs or one, with zero vectors
            u = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
            signs = rng.choice([(1,), (-1,), (1, -1)])
            yield [
                tuple(rng.choice(signs) * Fraction(rng.randint(0, 9), rng.randint(1, 5)) * x for x in u)
                for _ in range(rng.randint(1, 5))
            ]
            continue
        rays = []
        for _ in range(rng.randint(1, 4)):
            if rays and rng.random() < 0.35:
                rays.append(tuple(-x for x in rng.choice(rays)))
            else:
                rays.append(tuple(oracle_entry(rng) for _ in range(2)))
        vectors = [
            tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) * x for x in r)
            for r in rays
            for _ in range(rng.randint(1, 3))
        ]
        vectors += [(0, 0)] * (rng.random() < 0.2) * rng.randint(1, 2)
        rng.shuffle(vectors)
        yield vectors


class TestPlanarSort:
    """In the plane one angular sort of the rays answers what the Farkas
    system and the rank answer in every dimension."""

    def test_matches_the_farkas_system_and_the_oracles(self):
        verdicts = Counter()
        for vectors in planar_configs(1928, 2000):
            dependent, spans = positively_dependent(vectors), positively_spanning(vectors)
            assert dependent == farkas_dependent(vectors), vectors
            assert spans == (rank(vectors) == 2 and farkas_dependent(vectors)), vectors
            G = VectorConfig(vectors)
            assert (G.dependent(G.labels), G.spans(G.labels)) == (dependent, spans), vectors
            verdicts[dependent, spans] += 1
        assert verdicts[True, True] > 100 and verdicts[True, False] > 50 and verdicts[False, False] > 100
        assert not verdicts[False, True]

    def test_matches_the_strict_systems(self):
        # the primal and dual oracles solve strict systems: every fourth
        # configuration of another 2,000
        for vectors in itertools.islice(planar_configs(1929, 2000), 0, 2000, 4):
            assert positively_dependent(vectors) == strictly_positive_dependence(vectors), vectors
            assert positively_spanning(vectors) == signed_systems_spanning(vectors), vectors

    @pytest.mark.parametrize(
        "vectors, dependent, spans",
        [
            ([(0, 0)], True, False),
            ([(0, 0), (0, 0)], True, False),
            ([(3, 1)], False, False),
            ([(3, 1), (0, 0)], False, False),
            # multiples of one ray are one ray, not an opposite pair
            ([(-3, 0), (-2, 0)], False, False),
            ([(Fraction(-1, 2), 0), (-2, 0), (-3, 0)], False, False),
            ([(-3, 0), (2, 0)], True, False),
            ([(-3, 0), (2, 0), (1, 0), (0, 0)], True, False),
            ([(1, 0), (-1, 0), (0, 1)], False, False),
            ([(1, 0), (-1, 0), (0, 1), (0, -5)], True, True),
            ([(1, 0), (0, 1), (-1, -1)], True, True),
            ([(1, 0), (0, 1), (-1, 1)], False, False),
        ],
    )
    def test_cases(self, vectors, dependent, spans):
        assert positively_dependent(vectors) == dependent == farkas_dependent(vectors)
        assert positively_spanning(vectors) == spans
        G = VectorConfig(vectors)
        assert (G.dependent(G.labels), G.spans(G.labels)) == (dependent, spans)

    def test_asks_no_lp_and_no_rank(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a planar question asked an LP or a rank")

        monkeypatch.setattr(lp, "nonneg_combination", refuse)
        monkeypatch.setattr(gale, "rank", refuse)
        for vectors in planar_configs(1930, 50):
            positively_dependent(vectors), positively_spanning(vectors)
            G = VectorConfig(vectors)
            G.spans(G.labels), G.dependent(G.labels), G.is_gale


class TestGaleTransform:
    def test_four_signs_on_line(self):
        assert VectorConfig([(1,), (1,), (-1,), (-1,)]).is_gale

    def test_coupling_matrix_at_one(self):
        assert coupling_config(1).is_gale

    def test_coupling_matrix_at_zero_fails(self):
        assert not coupling_config(0).is_gale


class TestCachedVerdict:
    def test_equals_the_single_deletion_loop(self):
        rng = random.Random(66)
        configs = [coupling_config(0), coupling_config(1), coupling_config(Fraction(1, 4))]
        for _ in range(30):
            e = rng.randint(1, 3)
            configs.append(VectorConfig([
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(e))
                for _ in range(rng.randint(e + 1, 7))
            ]))
        seen = set()
        for G in configs:
            loop = all(
                positively_spanning(G.vectors[:i] + G.vectors[i + 1:]) for i in range(len(G))
            )
            assert G.is_gale == loop
            seen.add(loop)
        assert seen == {True, False}

    @staticmethod
    def count_questions(monkeypatch) -> Counter:
        """Count the planar sorts, the ranks and the LPs `gale` asks: every
        LP, the Farkas systems of `lp_feasible` too, is one
        `nonneg_combination` call."""
        counts = Counter()

        def count(module, name, key):
            original = getattr(module, name)

            def counting(*args):
                counts[key] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counting)

        count(gale, "_planar_verdicts", "sorts")
        count(gale, "rank", "ranks")
        count(lp, "nonneg_combination", "lps")
        return counts

    def test_second_read_runs_no_lp(self, monkeypatch):
        counts = self.count_questions(monkeypatch)
        G = coupling_config(Fraction(1, 4))
        assert G.is_gale
        # 6 deletions leave 3 distinct ray sets, one positive dependence
        # question each, and in the plane one angular sort answers it with
        # the rank; one question per deletion made 6, and each one was a
        # Farkas system after a rank, 3 LPs and 3 ranks, before the planar
        # sort
        assert counts == {"sorts": 3}
        assert G.is_gale
        # a vertex's complement is a single deletion, whose verdict
        # `is_gale` kept
        assert gale_faces_of_card(G, 1) == [frozenset([l]) for l in G.labels]
        assert counts == {"sorts": 3}
        gale_faces_of_card(G, 2)
        # the complements of the 15 pairs carry 6 ray sets, 3 of them the
        # deletions'; a cone LP for dependence apart from the spanning
        # system asked all 6
        assert counts == {"sorts": 3 + 3}
        # the complement of the edge {1, 3} is one of those 15
        assert G.dependent([2, 4, 5, 6])
        assert counts == {"sorts": 3 + 3}
        # spanning and dependence read one verdict per ray set: the
        # vectors 3 and 4 are of full rank and not positively dependent
        assert not G.spans([3, 4])
        assert not G.dependent([4, 3])
        assert not G.spans([4, 3])
        assert counts == {"sorts": 3 + 3 + 1}
        # the verdict lives on the instance: an equal, fresh one decides again
        assert coupling_config(Fraction(1, 4)).is_gale
        assert counts == {"sorts": 3 + 3 + 1 + 3}

    def test_second_read_runs_no_lp_off_the_plane(self, monkeypatch):
        counts = self.count_questions(monkeypatch)
        # four rays in R^3 that positively span it, each on two labels
        rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
        G = VectorConfig([r for r in rays for _ in range(2)])
        assert G.is_gale
        # every deletion leaves all four rays: one rank and one Farkas system
        assert counts == {"ranks": 1, "lps": 1}
        assert G.is_gale
        assert gale_faces_of_card(G, 1) == [frozenset([l]) for l in G.labels]
        assert counts == {"ranks": 1, "lps": 1}
        # the 28 pair complements leave all four rays, or three of them when
        # both copies of one go: 4 new ray sets, a dependence system each
        # and no rank
        assert len(gale_faces_of_card(G, 2)) == 28 - 4
        assert counts == {"ranks": 1, "lps": 1 + 4}
        # spanning asks the rank of such a set first, once, and reads the
        # kept dependence verdict
        assert not G.spans([3, 4, 5, 6, 7, 8])
        assert not G.spans([5, 3, 7])
        assert counts == {"ranks": 2, "lps": 1 + 4}

    def test_verdict_leaves_eq_and_hash_unchanged(self):
        G, H = coupling_config(Fraction(1, 4)), coupling_config(Fraction(1, 4))
        before = hash(G)
        assert G.is_gale
        assert G == H and hash(G) == hash(H) == before
        assert G != coupling_config(Fraction(1, 2))
        assert repr(G) == repr(H)


def ray_multisets(seed, count):
    """Seeded configurations whose vectors repeat rays: each drawn vector
    comes back as one to three positive rational multiples, sometimes equal
    to it, in shuffled order; a drawn vector may be the negative of an
    earlier one, and now and then a zero vector joins."""
    rng = random.Random(seed)
    for _ in range(count):
        e = rng.randint(1, 3)
        vectors = []
        for _ in range(rng.randint(1, 4)):
            if vectors and rng.random() < 0.3:
                v = tuple(-x for x in rng.choice(vectors))
            else:
                v = tuple(oracle_entry(rng) for _ in range(e))
            for _ in range(rng.randint(1, 3)):
                c = rng.choice([Fraction(1), Fraction(rng.randint(1, 9), rng.randint(1, 9))])
                vectors.append(tuple(c * x for x in v))
        if rng.random() < 0.15:
            vectors.append((0,) * e)
        rng.shuffle(vectors)
        yield rng, VectorConfig(vectors)


class TestRaySetMemo:
    """Spanning and dependence verdicts kept per ray set equal those on the raw vectors."""

    def test_verdicts_equal_the_raw_answers(self):
        verdicts = Counter()
        for rng, G in ray_multisets(2323, 150):
            labels = list(G.labels)
            for labs in (labels, rng.sample(labels, rng.randint(1, len(labels)))):
                raw = [G.vectors[G.labels.index(l)] for l in labs]
                spans, dependent = G.spans(labs), G.dependent(labs)
                assert spans == positively_spanning(raw) == signed_systems_spanning(raw), raw
                assert dependent == positively_dependent(raw) == strictly_positive_dependence(raw), raw
                verdicts[spans, dependent] += 1
        assert verdicts[True, True] > 20 and verdicts[False, True] > 20 and verdicts[False, False] > 20
        assert not verdicts[True, False]  # a positively spanning set is positively dependent

    def test_a_known_ray_set_runs_no_lp(self, monkeypatch):
        calls = []
        original = lp.nonneg_combination

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(lp, "nonneg_combination", counting)
        checked = 0
        for _, G in ray_multisets(2424, 60):
            rays = G.subset(G.labels)
            first = {}
            for label, ray in zip(G.labels, rays):
                first.setdefault(ray, label)
            # one label per ray: the same ray set as all labels
            spans, dependent = G.spans(G.labels), G.dependent(G.labels)
            before = len(calls)
            assert (G.spans(first.values()), G.dependent(first.values())) == (spans, dependent)
            assert len(calls) == before
            checked += len(first) < len(G)
        assert checked > 40


def scaled_config(rng, G):
    """G with each vector times a random positive rational, the first times 2."""
    factors = [Fraction(2)] + [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(len(G) - 1)]
    return VectorConfig([tuple(c * x for x in v) for c, v in zip(factors, G.vectors)], G.labels)


class TestIntegerCopy:
    """The verdicts read an integer copy of the vectors; it must not show."""

    @staticmethod
    def configs():
        rng = random.Random(67)
        gale_configs = [coupling_config(Fraction(1, 4)), coupling_config(1)]
        other = [coupling_config(0)]
        for e in (1, 2, 3):
            found = {True: 0, False: 0}
            # seed 67 needs 9, 9 and 29 draws; a wrong spanning test must fail, not hang
            for _ in range(100):
                if min(found.values()) == 2:
                    break
                vectors = []
                for _ in range(rng.randint(e + 3, 7)):
                    v = (0,) * e
                    while not any(v):
                        v = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(e))
                    vectors.append(v)
                G = VectorConfig(vectors)
                if found[G.is_gale] < 2:
                    found[G.is_gale] += 1
                    (gale_configs if G.is_gale else other).append(G)
            assert min(found.values()) == 2, f"100 draws in R^{e} gave too few of one verdict: {found}"
        return rng, gale_configs, other

    def test_positive_scaling_keeps_every_verdict(self):
        rng, gale_configs, other = self.configs()
        for G in gale_configs + other:
            S = scaled_config(rng, G)
            assert S != G and S.vectors != G.vectors
            assert S.is_gale == G.is_gale
            assert general_position(S) == general_position(G)
            for k in range(1, min(FACE_CARD_CAP, len(G)) + 1):
                if G.is_gale:
                    assert gale_faces_of_card(S, k) == gale_faces_of_card(G, k), k
                else:
                    for H in (G, S):
                        with pytest.raises(NotGale):
                            gale_faces_of_card(H, k)

    def test_vectors_are_positive_integer_multiples(self):
        rng, gale_configs, other = self.configs()
        for G in gale_configs + other:
            for label, v in zip(G.labels, G.vectors):
                w = G.subset([label])[0]
                assert all(type(x) is int for x in w)
                c = next(wj / vj for wj, vj in zip(w, v) if vj)
                assert c > 0 and w == tuple(c * x for x in v)

    def test_single_labels_match_the_deletion_answers(self):
        rng, gale_configs, other = self.configs()
        for G in gale_configs:
            deletions = [
                frozenset({G.labels[i]})
                for i in range(len(G))
                if positively_dependent(G.vectors[:i] + G.vectors[i + 1:])
            ]
            assert gale_faces_of_card(G, 1) == deletions == [frozenset({l}) for l in G.labels]
        for G in other:
            with pytest.raises(NotGale):
                gale_faces_of_card(G, 1)


class TestFaceTest:
    OCT = coupling_config(1)

    def test_edge(self):
        assert frozenset({1, 3}) in gale_faces_of_card(self.OCT, 2)
        assert self.OCT.dependent([2, 4, 5, 6])

    def test_diagonal_is_not_a_face(self):
        assert frozenset({1, 2}) not in gale_faces_of_card(self.OCT, 2)
        assert not self.OCT.dependent([3, 4, 5, 6])

    def test_empty_coface(self):
        assert gale_faces_of_card(self.OCT, 0) == [frozenset()]
        assert positively_dependent(self.OCT.vectors)

    def test_improper_face(self):
        # the whole label set has no complement to be dependent, and is a face
        assert gale_faces_of_card(self.OCT, 6) == [frozenset({1, 2, 3, 4, 5, 6})]

    def test_non_gale_refused(self):
        bad = coupling_config(0)
        for k in (2, 4, 6):
            with pytest.raises(NotGale):
                gale_faces_of_card(bad, k)


class TestFaceEnumeration:
    def test_octahedron_f_vector(self):
        oct_config = coupling_config(1)
        counts = [len(gale_faces_of_card(oct_config, k)) for k in (1, 2, 3)]
        assert counts == [6, 12, 8]
        edges = set(gale_faces_of_card(oct_config, 2))
        assert all(frozenset(d) not in edges for d in ({1, 2}, {3, 4}, {5, 6}))

    def test_cardinality_cap(self):
        with pytest.raises(ValueError):
            gale_faces_of_card(coupling_config(1), 9)
        with pytest.raises(ValueError):
            gale_faces_of_card(coupling_config(1), 7)

    def test_cardinality_cap_is_typed(self):
        # ten vectors positively spanning R^2, so a k = 9 sweep would run
        G = VectorConfig([(1, 0), (0, 1), (-1, -1)] * 3 + [(1, 1)])
        with pytest.raises(TooLargeForExact) as err:
            gale_faces_of_card(G, FACE_CARD_CAP + 1)
        assert str(err.value) == (
            "Gale face enumeration of cardinality 9 (C(10, 9) = 10 label sets)"
            " exceeds the cap 8 on the cardinality"
        )
        # one less runs: the complement of an 8-set is two vectors, dependent
        # iff they are (1, 1) and a copy of (-1, -1)
        assert gale_faces_of_card(G, FACE_CARD_CAP) == [frozenset(range(1, 11)) - {i, 10} for i in (9, 6, 3)]
        # a k past the configuration's size is a plain bad argument, under
        # the cap or over it
        for k in (7, FACE_CARD_CAP + 1):
            with pytest.raises(ValueError) as err:
                gale_faces_of_card(coupling_config(1), k)
            assert type(err.value) is ValueError

    def test_cross_polytope_diagram_matches_direct_hull(self):
        a, b, c = (1, 0), (0, 1), (-1, -1)
        diagram = VectorConfig([a, a, b, b, c, c])
        assert diagram.is_gale
        counts = [len(gale_faces_of_card(diagram, k)) for k in (1, 2, 3)]
        assert counts == [6, 12, 8]
        # direct face oracle on the standard cross-polytope
        cross = [
            vec([1, 0, 0]), vec([-1, 0, 0]),
            vec([0, 1, 0]), vec([0, -1, 0]),
            vec([0, 0, 1]), vec([0, 0, -1]),
        ]
        assert hull_vertex_indices(cross) == set(range(6))
        for k in (2, 3):
            direct = sum(
                vpoly_face_oracle(cross, set(sub))
                for sub in itertools.combinations(range(6), k)
            )
            assert direct == counts[k - 1]


class TestGeneralPosition:
    def test_standard_basis(self):
        assert general_position(VectorConfig([(1, 0), (0, 1)]))

    def test_repeated_columns_never_generic(self):
        # the coupling matrix has two pairs of equal vectors at every
        # deformation value, so no parameter choice is in general position
        for e in (Fraction(1, 4), Fraction(1, 2), 1):
            assert not general_position(coupling_config(e))

    def test_generic_perturbation_is_generic(self):
        g = VectorConfig([(1, 0), (1, Fraction(1, 7)), (-1, -1), (Fraction(-1, 3), -1), (0, 1), (Fraction(1, 9), 1)])
        assert general_position(g)


class TestInvariance:
    def test_linear_maps_preserve_verdicts(self):
        rng = random.Random(63)
        for _ in range(25):
            e = rng.randint(1, 3)
            m = rng.randint(e + 1, 6)
            vectors = [
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(e)) for _ in range(m)
            ]
            u = unimodular_matrix(rng, e)
            mapped = [mat_vec(u, v) for v in vectors]
            assert positively_spanning(vectors) == positively_spanning(mapped)
            assert positively_dependent(vectors) == positively_dependent(mapped)
            g1, g2 = VectorConfig(vectors), VectorConfig(mapped)
            assert g1.is_gale == g2.is_gale
            if g1.is_gale:
                coface = frozenset(rng.sample(range(1, m + 1), rng.randint(0, m)))
                assert gale_faces_of_card(g1, len(coface)) == gale_faces_of_card(g2, len(coface))

    def test_positive_rescaling_preserves_verdicts(self):
        rng = random.Random(64)
        for _ in range(25):
            e = rng.randint(1, 3)
            vectors = [
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(e))
                for _ in range(rng.randint(1, 6))
            ]
            scaled = []
            for v in vectors:
                c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
                scaled.append(tuple(c * x for x in v))
            assert positively_spanning(vectors) == positively_spanning(scaled)
            assert positively_dependent(vectors) == positively_dependent(scaled)

    def test_monotonicity(self):
        rng = random.Random(65)
        for _ in range(25):
            e = rng.randint(1, 3)
            vectors = [
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(e))
                for _ in range(rng.randint(1, 5))
            ]
            extra = tuple(Fraction(rng.randint(-3, 3)) for _ in range(e))
            if positively_spanning(vectors):
                assert positively_spanning(vectors + [extra])
            if positively_dependent(vectors):
                negated = tuple(-x for x in extra)
                assert positively_dependent(vectors + [extra, negated])


def test_duplicate_labels_rejected():
    with pytest.raises(DuplicateLabels):
        VectorConfig([(1, 0), (0, 1)], labels=[1, 1])


@pytest.mark.parametrize("question", ["subset", "spans", "dependent"])
def test_questions_name_the_unknown_label(question):
    G = VectorConfig([(1, 0), (0, 1), (-1, -1)], labels=(4, 5, 6))
    with pytest.raises(UnknownLabel) as info:
        getattr(G, question)([4, 9, 5])
    assert info.value.args == (9,)


@pytest.mark.parametrize("vectors", [[], [(1, 0), (1, 0, 0)], [(1, 0, 0), (1, 0)]])
def test_configuration_needs_vectors_of_one_dimension(vectors):
    with pytest.raises(DimensionMismatch):
        VectorConfig(vectors)


@pytest.mark.parametrize("question", [positively_spanning, positively_dependent])
def test_empty_set_refused_before_any_dimension_is_read(question):
    # the planar dispatch reads the first vector's dimension, so an empty
    # set must be refused before it, in the generator form too
    for W in ([], iter([])):
        with pytest.raises(DimensionMismatch, match="empty set"):
            question(W)


@pytest.mark.parametrize("question", [positively_spanning, positively_dependent])
def test_planar_question_refuses_mixed_dimensions(question):
    for W in ([(1, 0), (1, 0, 0)], [(1, 2), (0, 0), (3,)], [(1, 0, 0), (0, 1), (-1, -1)], [(1,), (0, 1)]):
        with pytest.raises(DimensionMismatch, match="mixed dimensions"):
            question(W)


@pytest.mark.parametrize("e", [0, 1, 2, 3])
def test_the_empty_ray_set_is_dependent_and_of_full_rank_in_r0_alone(e):
    # the one deletion of a one-vector configuration leaves no ray: the
    # empty combination is zero, and the empty set has rank 0, which is
    # full in R^0 alone, where the empty cone is the whole space
    G = VectorConfig([(1,) * e])
    assert G.dependent([])
    assert G.spans([]) == G.is_gale == (e == 0)
