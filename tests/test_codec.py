import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aracodes import codec
from aracodes.codec import (
    CodeInstance,
    Codeword,
    ConstructionError,
    ReceivedWord,
    decode,
    encode,
    check_codeword,
    gf2_eliminate,
    gf2_solve_unique,
    graph_reduce_instance,
    instantiate,
    ml_reference_decode,
    outer_decode,
    peel_decode,
)
from aracodes.constructions import self_matched_ara
from aracodes.powerseries import DegreeDistribution, DegreePair, InvalidParameterError, monomial


def regular_pair():
    bit = DegreeDistribution.from_node(monomial(3, 8), exact_mean=3.0)
    check = DegreeDistribution.from_node(monomial(3, 8), exact_mean=3.0, allow_degree_one=True)
    return DegreePair(bit=bit, check=check, family="ARA", p=0.5)


def instance_from_checks(k, checks):
    """Pilot-free instance whose check i holds the punctured bits checks[i]."""
    targets = np.array([t for check in checks for t in check], dtype=np.int64)
    degrees = np.array([len(check) for check in checks], dtype=np.int64)
    return CodeInstance(
        k=k,
        bit_degrees=np.bincount(targets, minlength=k),
        check_degrees=degrees,
        edge_targets=targets,
        check_offsets=np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64),
        pilot_set=np.empty(0, dtype=np.int64),
        outer_P=np.zeros((0, k), dtype=np.uint8),
        family="ARA",
        seed=0,
        d_L=8,
        d_R=8,
    )


def hand_instance(k=3):
    """Accumulator chain with one degree-1 check per punctured bit."""
    return instance_from_checks(k, [[j] for j in range(k)])


def erase(cw: Codeword, rng, p) -> ReceivedWord:
    eu = rng.random(len(cw.u)) < p
    ez = rng.random(len(cw.z)) < p
    return ReceivedWord(
        u_vals=np.where(eu, -1, cw.u).astype(np.int8),
        z_vals=np.where(ez, -1, cw.z).astype(np.int8),
    )


def stack_peel(rg):
    """Resolve degree-1 groups one at a time from a stack; returns resolutions."""
    members, groups_of = {}, {}
    for g, c in zip(rg.inc_grp.tolist(), rg.inc_cls.tolist()):
        members.setdefault(g, []).append(c)
        groups_of.setdefault(c, []).append(g)
    degree = {g: len(cs) for g, cs in members.items()}
    stack = [g for g, d in degree.items() if d == 1]
    resolved = 0
    while stack:
        g = stack.pop()
        if degree[g] != 1:
            continue
        (c,) = [c for c in members[g] if not rg.known[c]]
        rg.known[c] = True
        rg.vals[c] = rg.grp_syndrome[g]
        resolved += 1
        for h in groups_of[c]:
            rg.grp_syndrome[h] ^= rg.vals[c]
            degree[h] -= 1
            if degree[h] == 1:
                stack.append(h)
    live = ~rg.known[rg.inc_cls]
    rg.inc_grp, rg.inc_cls = rg.inc_grp[live], rg.inc_cls[live]
    return resolved


class TestGF2:
    def test_rank_identity(self):
        A = np.eye(4, dtype=np.uint8)
        rank, pivots, _, _ = gf2_eliminate(A, np.zeros(4, dtype=np.uint8))
        assert rank == 4 and pivots == [0, 1, 2, 3]

    def test_solve_unique(self):
        A = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]], dtype=np.uint8)
        x = np.array([1, 0, 1], dtype=np.uint8)
        b = (A @ x) & 1
        got = gf2_solve_unique(A, b)
        assert np.array_equal(got, x)

    def test_underdetermined_returns_none(self):
        A = np.array([[1, 1, 0]], dtype=np.uint8)
        assert gf2_solve_unique(A, np.array([1], dtype=np.uint8)) is None

    def test_full_rank_probability_oracle(self):
        # random square systems over GF(2): P(full rank) -> prod (1 - 2^-i)
        rng = np.random.default_rng(5)
        m = 12
        hits = 0
        trials = 2000
        for _ in range(trials):
            A = rng.integers(0, 2, size=(m, m), dtype=np.uint8)
            rank, _, _, _ = gf2_eliminate(A, np.zeros(m, dtype=np.uint8))
            hits += rank == m
        expect = np.prod([1.0 - 2.0 ** (-i) for i in range(1, m + 1)])
        sigma = np.sqrt(expect * (1 - expect) / trials)
        assert abs(hits / trials - expect) < 4 * sigma + 1e-3


class TestQuantization:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=30), st.integers(1, 5000))
    def test_largest_remainder_sums_exactly(self, weights, total):
        from aracodes.codec import _largest_remainder

        w = np.asarray(weights)
        if w.sum() <= 0:
            w = w + 1.0
        counts = _largest_remainder(w, total)
        assert counts.sum() == total
        assert np.all(counts >= 0)
        # proportionality: each count within one of its ideal share
        ideal = w / w.sum() * total
        assert np.all(np.abs(counts - ideal) <= 1.0 + 1e-9)


class TestInstantiate:
    def test_regular_small(self):
        inst = instantiate(regular_pair(), k=9, d_L=8, d_R=8, seed=1)
        assert inst.k == 9
        assert inst.n_checks == 9
        assert inst.bit_degrees.sum() == 27
        assert inst.check_degrees.sum() == 27
        assert inst.n == 18

    def test_determinism(self):
        pair = self_matched_ara(0.5, order=128)
        a = instantiate(pair, k=512, d_L=30, d_R=30, m_outer=6, seed=9)
        b = instantiate(pair, k=512, d_L=30, d_R=30, m_outer=6, seed=9)
        assert np.array_equal(a.edge_targets, b.edge_targets)
        assert np.array_equal(a.pilot_set, b.pilot_set)
        assert np.array_equal(a.outer_P, b.outer_P)
        c = instantiate(pair, k=512, d_L=30, d_R=30, m_outer=6, seed=10)
        assert not np.array_equal(a.edge_targets, c.edge_targets)

    def test_pilot_count_tracks_tail_mass(self):
        pair = self_matched_ara(0.5, order=256)
        inst = instantiate(pair, k=8192, d_L=64, d_R=64, seed=3)
        tail = pair.bit.node.coeffs[65:].sum() / pair.bit.node.coeffs.sum()
        assert abs(len(inst.pilot_set) - 8192 * tail) <= 2.0

    def test_pilots_avoid_outer_tail(self):
        pair = self_matched_ara(0.5, order=256)
        inst = instantiate(pair, k=2048, d_L=24, d_R=24, m_outer=16, seed=7)
        assert len(inst.pilot_set) > 0
        assert np.all(inst.pilot_set < inst.k - inst.m_outer)

    def test_non_ara_rejected(self):
        from aracodes.constructions import self_matched_nsira

        with pytest.raises(ConstructionError):
            instantiate(self_matched_nsira(0.4, order=64), k=64)

    @pytest.mark.parametrize(
        "k, m_outer", [(0, 0), (-3, 0), (64, -1), (64, 64), (64, 100)]
    )
    def test_empty_sizes_rejected(self, k, m_outer):
        with pytest.raises(InvalidParameterError):
            instantiate(self_matched_ara(0.5, order=64), k=k, m_outer=m_outer)

    def test_no_information_bits_rejected(self):
        # every bit of degree 3 exceeds d_L = 2, so every bit becomes a pilot
        with pytest.raises(ConstructionError, match="no information bits"):
            instantiate(regular_pair(), k=9, d_L=2, d_R=8, seed=1)
        # two bits, one pilot, one outer parity
        with pytest.raises(ConstructionError, match="no information bits"):
            instantiate(self_matched_ara(0.5, order=64), k=2, d_L=2, d_R=12, m_outer=1, seed=0)


class TestEncode:
    def test_all_zero(self):
        pair = self_matched_ara(0.5, order=128)
        inst = instantiate(pair, k=256, d_L=24, d_R=24, m_outer=4, seed=2)
        cw = encode(inst, np.zeros(inst.info_len, dtype=np.uint8))
        assert not np.any(cw.u) and not np.any(cw.z)

    def test_hand_worked_chain(self):
        inst = hand_instance()
        cw = encode(inst, np.array([1, 0, 0], dtype=np.uint8))
        v = np.cumsum(cw.u) & 1
        assert np.array_equal(v, [1, 1, 1])
        assert np.array_equal(cw.z, [1, 0, 1])

    def test_pilot_forces_zero_state(self):
        pair = self_matched_ara(0.5, order=256)
        inst = instantiate(pair, k=2048, d_L=24, d_R=24, seed=5)
        assert len(inst.pilot_set) > 0
        rng = np.random.default_rng(0)
        cw = encode(inst, rng.integers(0, 2, inst.info_len, dtype=np.uint8))
        v = np.cumsum(cw.u) & 1
        assert not np.any(v[inst.pilot_set])

    def test_outer_constraints_hold(self):
        pair = self_matched_ara(0.5, order=128)
        inst = instantiate(pair, k=512, d_L=24, d_R=24, m_outer=12, seed=4)
        rng = np.random.default_rng(1)
        cw = encode(inst, rng.integers(0, 2, inst.info_len, dtype=np.uint8))
        assert check_codeword(inst, cw)

    def test_wrong_info_length(self):
        inst = hand_instance()
        with pytest.raises(Exception):
            encode(inst, np.array([1, 0], dtype=np.uint8))

    def test_linearity(self):
        pair = self_matched_ara(0.5, order=128)
        inst = instantiate(pair, k=256, d_L=24, d_R=24, seed=8)
        rng = np.random.default_rng(2)
        a = rng.integers(0, 2, inst.info_len, dtype=np.uint8)
        b = rng.integers(0, 2, inst.info_len, dtype=np.uint8)
        ca, cb, cab = encode(inst, a), encode(inst, b), encode(inst, a ^ b)
        assert np.array_equal(cab.u, ca.u ^ cb.u)
        assert np.array_equal(cab.z, ca.z ^ cb.z)


class TestGraphReduction:
    def test_erasure_free_resolves_everything(self):
        pair = self_matched_ara(0.5, order=128)
        inst = instantiate(pair, k=512, d_L=24, d_R=24, seed=3)
        rng = np.random.default_rng(4)
        cw = encode(inst, rng.integers(0, 2, inst.info_len, dtype=np.uint8))
        rcv = ReceivedWord(u_vals=cw.u.astype(np.int8), z_vals=cw.z.astype(np.int8))
        rg = graph_reduce_instance(inst, rcv)
        assert rg.known.all()  # no peeling needed at all

    def test_all_parity_erased_single_group(self):
        inst = hand_instance(5)
        cw = encode(inst, np.array([1, 0, 1, 1, 0], dtype=np.uint8))
        rcv = ReceivedWord(
            u_vals=cw.u.astype(np.int8), z_vals=-np.ones(5, dtype=np.int8)
        )
        rg = graph_reduce_instance(inst, rcv)
        # the one unclosed group carries no constraint: no syndrome, no incidence
        assert len(rg.grp_syndrome) == 0
        assert len(rg.inc_grp) == 0 and len(rg.inc_cls) == 0

    def test_offsets_reflect_observed_bits(self):
        inst = hand_instance(4)
        cw = encode(inst, np.array([1, 1, 0, 1], dtype=np.uint8))
        u_vals = cw.u.astype(np.int8).copy()
        u_vals[0] = -1  # erase the first systematic bit only
        rcv = ReceivedWord(u_vals=u_vals, z_vals=cw.z.astype(np.int8))
        rg = graph_reduce_instance(inst, rcv)
        assert rg.n_classes == 2  # anchored prefix (empty) + one chain class
        assert not rg.known[1]
        v = np.cumsum(cw.u) & 1
        offs = v ^ v[0]
        assert np.array_equal(rg.off, offs)


class TestPeeling:
    def test_degree_one_chain_resolves(self):
        inst = hand_instance(8)
        cw = encode(inst, np.ones(8, dtype=np.uint8))
        rcv = ReceivedWord(
            u_vals=-np.ones(8, dtype=np.int8), z_vals=cw.z.astype(np.int8)
        )
        rg = graph_reduce_instance(inst, rcv)
        peel_decode(rg)
        assert rg.known.all()

    def test_stopping_set_halts(self):
        # two punctured bits sharing two degree-2 checks: no degree-1 check
        inst = instance_from_checks(2, [[0, 1], [0, 1]])
        cw = encode(inst, np.array([1, 1], dtype=np.uint8))
        rcv = ReceivedWord(u_vals=-np.ones(2, dtype=np.int8), z_vals=cw.z.astype(np.int8))
        rg = graph_reduce_instance(inst, rcv)
        resolved = peel_decode(rg)
        assert resolved == 0
        assert not rg.known[1:].any()

    def test_class_last_in_two_groups_resolves_once(self):
        # erasing u_1 alone puts v_1 and v_2 in one class, which is then the
        # only unknown of checks 1 and 2 in the same round
        inst = hand_instance(3)
        cw = encode(inst, np.array([1, 1, 0], dtype=np.uint8))
        u_vals = cw.u.astype(np.int8).copy()
        u_vals[1] = -1
        rcv = ReceivedWord(u_vals=u_vals, z_vals=cw.z.astype(np.int8))
        rg = graph_reduce_instance(inst, rcv)
        assert list(rg.inc_grp) == [1, 2] and list(rg.inc_cls) == [1, 1]
        assert peel_decode(rg) == 1
        assert rg.known.all()
        v = rg.vals[rg.cls] ^ rg.off
        unique, v_ml = ml_reference_decode(inst, rcv)
        assert unique
        assert np.array_equal(v, v_ml)
        assert np.array_equal(v, np.cumsum(cw.u) & 1)

    def test_leftover_incidences_name_unknown_classes(self):
        # above threshold peeling stalls part way; what it leaves must be the
        # unknown classes, each group's syndrome the xor of their true values
        pair = self_matched_ara(0.5, order=128)
        inst = instantiate(pair, k=512, d_L=24, d_R=24, seed=3)
        rng = np.random.default_rng(8)
        cw = encode(inst, rng.integers(0, 2, inst.info_len, dtype=np.uint8))
        v_true = np.cumsum(cw.u) & 1
        stalls = 0
        for _ in range(10):
            rg = graph_reduce_instance(inst, erase(cw, rng, 0.55))
            resolved = peel_decode(rg)
            assert not rg.known[rg.inc_cls].any()
            x_true = np.zeros(rg.n_classes, dtype=np.uint8)
            x_true[rg.cls] = v_true ^ rg.off
            for g in range(len(rg.grp_syndrome)):
                live = rg.inc_cls[rg.inc_grp == g]
                assert rg.grp_syndrome[g] == np.bitwise_xor.reduce(x_true[live], initial=0)
            assert np.array_equal(rg.vals[rg.known], x_true[rg.known])
            stalls += resolved > 0 and len(rg.inc_grp) > 0
        assert stalls >= 5


    @pytest.mark.parametrize(
        "checks",
        [[[0]], [[0, 1]], [[0, 1, 2]], [[0, 1, 2, 3]], [[0, 1], [2]], [[0, 1], [2, 3]]],
    )
    def test_sockets_of_one_class_cancel_mod_2(self, checks):
        # erasing u_0 alone puts every punctured bit in class 1, and erasing
        # all parity bits but the last makes the checks one group, so that
        # group holds every socket of class 1: one incidence for an odd count
        k = sum(len(check) for check in checks)
        inst = instance_from_checks(k, checks)
        cw = encode(inst, np.array([1, 0, 1, 1][:k], dtype=np.uint8))
        u_vals = cw.u.astype(np.int8).copy()
        u_vals[0] = -1
        z_vals = cw.z.astype(np.int8).copy()
        z_vals[:-1] = -1
        rcv = ReceivedWord(u_vals=u_vals, z_vals=z_vals)
        rg = graph_reduce_instance(inst, rcv)
        odd = k % 2
        assert list(rg.inc_grp) == [0] * odd and list(rg.inc_cls) == [1] * odd
        assert peel_decode(rg) == odd
        res = decode(inst, rcv)
        unique, v_ml = ml_reference_decode(inst, rcv)
        assert res.success == unique == bool(odd)
        if odd:
            assert np.array_equal(res.v_vals, v_ml)
            assert np.array_equal(res.v_vals, np.cumsum(cw.u) & 1)

    def test_every_class_known_leaves_no_keys(self):
        # with no systematic bit erased every class is known, so no socket
        # yields an incidence key, whatever parity bits are lost
        inst = instance_from_checks(3, [[0, 1], [1, 2], [0, 2]])
        cw = encode(inst, np.array([1, 0, 1], dtype=np.uint8))
        z_vals = cw.z.astype(np.int8).copy()
        z_vals[1] = -1
        rcv = ReceivedWord(u_vals=cw.u.astype(np.int8), z_vals=z_vals)
        rg = graph_reduce_instance(inst, rcv)
        assert rg.known.all()
        assert len(rg.inc_grp) == 0 and len(rg.inc_cls) == 0
        assert peel_decode(rg) == 0
        res = decode(inst, rcv)
        assert res.success
        assert np.array_equal(res.v_vals, np.cumsum(cw.u) & 1)

    def test_chain_peels_list_empty_before_round_bound(self):
        # every systematic bit erased; the chain is closed at both ends, so
        # each round resolves its two outermost classes and the list runs
        # empty after k / 2 rounds, well within the bound of k + 1
        k = 6
        inst = instance_from_checks(k, [[0]] + [[j - 1, j] for j in range(1, k)] + [[k - 1]])
        cw = encode(inst, np.array([1, 1, 0, 1, 0, 0], dtype=np.uint8))
        rcv = ReceivedWord(u_vals=-np.ones(k, dtype=np.int8), z_vals=cw.z.astype(np.int8))
        rg = graph_reduce_instance(inst, rcv)
        assert len(rg.inc_grp) == 2 * k
        assert peel_decode(rg) == k
        assert len(rg.inc_grp) == 0 and len(rg.inc_cls) == 0
        assert rg.known.all()
        assert np.array_equal(rg.vals[rg.cls] ^ rg.off, np.cumsum(cw.u) & 1)

    def test_matches_stack_peeler(self):
        # peel_decode against a plain one-group-at-a-time peeler over the same
        # reduced incidence list, on decodes that empty the list and on stalled ones
        pair = self_matched_ara(0.5, order=64)
        rng = np.random.default_rng(66)
        outcomes = {"emptied": 0, "stalled": 0}
        for s in range(300):
            k = int(rng.integers(48, 97))
            m = int(rng.integers(4, 9))
            inst = instantiate(pair, k=k, d_L=12, d_R=12, m_outer=m, seed=1000 + s)
            cw = encode(inst, rng.integers(0, 2, inst.info_len, dtype=np.uint8))
            rcv = erase(cw, rng, float(rng.uniform(0.3, 0.6)))
            rg = graph_reduce_instance(inst, rcv)
            ref = copy.deepcopy(rg)
            assert peel_decode(rg) == stack_peel(ref)
            for field in ("known", "vals", "grp_syndrome", "inc_grp", "inc_cls"):
                assert np.array_equal(getattr(rg, field), getattr(ref, field)), field
            outcomes["stalled" if len(rg.inc_grp) else "emptied"] += 1
        assert min(outcomes.values()) >= 30, outcomes


class TestOuterDecode:
    def test_no_unknowns_trivial_success(self):
        pair = self_matched_ara(0.5, order=128)
        inst = instantiate(pair, k=256, d_L=24, d_R=24, m_outer=4, seed=1)
        cw = encode(inst, np.zeros(inst.info_len, dtype=np.uint8))
        rcv = ReceivedWord(u_vals=cw.u.astype(np.int8), z_vals=cw.z.astype(np.int8))
        rg = graph_reduce_instance(inst, rcv)
        peel_decode(rg)
        assert outer_decode(rg, inst)

    def test_more_unknowns_than_equations_fails(self):
        pair = self_matched_ara(0.5, order=128)
        inst = instantiate(pair, k=512, d_L=24, d_R=24, m_outer=2, seed=6)
        cw = encode(inst, np.zeros(inst.info_len, dtype=np.uint8))
        rng = np.random.default_rng(3)
        rcv = erase(cw, rng, 0.65)  # far above threshold
        rg = graph_reduce_instance(inst, rcv)
        peel_decode(rg)
        assert np.count_nonzero(~rg.known) > 2
        assert not outer_decode(rg, inst)


class TestDecodeEndToEnd:
    def test_round_trip_no_erasures(self):
        pair = self_matched_ara(0.5, order=128)
        inst = instantiate(pair, k=512, d_L=24, d_R=24, m_outer=8, seed=2)
        rng = np.random.default_rng(0)
        for _ in range(25):
            info = rng.integers(0, 2, inst.info_len, dtype=np.uint8)
            cw = encode(inst, info)
            rcv = ReceivedWord(u_vals=cw.u.astype(np.int8), z_vals=cw.z.astype(np.int8))
            res = decode(inst, rcv)
            assert res.success
            v_true = np.cumsum(cw.u) & 1
            assert np.array_equal(res.v_vals, v_true)

    def test_decode_determinism(self):
        pair = self_matched_ara(0.5, order=128)
        inst = instantiate(pair, k=512, d_L=24, d_R=24, m_outer=8, seed=2)
        rng = np.random.default_rng(7)
        cw = encode(inst, rng.integers(0, 2, inst.info_len, dtype=np.uint8))
        rcv = erase(cw, rng, 0.45)
        a = decode(inst, rcv)
        b = decode(inst, rcv)
        assert a.success == b.success
        assert np.array_equal(a.v_vals, b.v_vals)

    def test_never_wrong_vs_reference(self, monkeypatch):
        # record how many degree-2 groups each outer call sees
        outer_calls = []

        def recording_outer(rg, inst):
            outer_calls.append(int(np.count_nonzero(np.bincount(rg.inc_grp) == 2)))
            return outer_decode(rg, inst)

        monkeypatch.setattr(codec, "outer_decode", recording_outer)
        pair = self_matched_ara(0.5, order=64)
        rng = np.random.default_rng(42)
        checked = 0
        # tiny instances, then instances large enough for degree-2 leftovers
        for k_range, m_range, n_instances in [((6, 17), (0, 4), 40), ((48, 97), (4, 9), 30)]:
            outer_calls.clear()
            for s in range(n_instances):
                k = int(rng.integers(*k_range))
                m = int(rng.integers(*m_range))
                inst = instantiate(pair, k=k, d_L=12, d_R=12, m_outer=m, seed=s)
                info = rng.integers(0, 2, inst.info_len, dtype=np.uint8)
                cw = encode(inst, info)
                v_true = np.cumsum(cw.u) & 1
                for t in range(10):
                    rcv = erase(cw, rng, float(rng.uniform(0.1, 0.7)))
                    res = decode(inst, rcv)
                    unique, v_ml = ml_reference_decode(inst, rcv)
                    if res.success:
                        assert unique
                        assert np.array_equal(res.v_vals, v_ml)
                        assert np.array_equal(res.v_vals, v_true)
                    checked += 1
        assert checked == 700
        assert sum(n_two > 0 for n_two in outer_calls) >= 20

    def test_outer_solves_through_degree_two_cycle(self):
        # seeded case: after peeling, the degree-2 groups over the unknown
        # classes contain a cycle, so one of their rows is redundant
        pair = self_matched_ara(0.5, order=64)
        inst = instantiate(pair, k=64, d_L=12, d_R=12, m_outer=6, seed=21)
        rng = np.random.default_rng(21)
        cw = encode(inst, rng.integers(0, 2, inst.info_len, dtype=np.uint8))
        rcv = erase(cw, rng, 0.45)

        rg = graph_reduce_instance(inst, rcv)
        peel_decode(rg)
        unknown = list(np.flatnonzero(~rg.known))
        rows = []
        for g in range(len(rg.grp_syndrome)):
            classes = rg.inc_cls[rg.inc_grp == g]
            if len(classes) == 2:
                row = np.zeros(len(unknown), dtype=np.uint8)
                for c in classes:
                    row[unknown.index(c)] ^= 1
                rows.append(row)
        D = np.array(rows)
        assert len(rows) > 0 and np.all(D.sum(axis=1) == 2)
        assert gf2_eliminate(D, np.zeros(len(rows), dtype=np.uint8))[0] < len(rows)

        res = decode(inst, rcv)
        unique, v_ml = ml_reference_decode(inst, rcv)
        assert res.success and res.rescued_by_outer and unique
        assert np.array_equal(res.v_vals, v_ml)
        assert np.array_equal(res.v_vals, np.cumsum(cw.u) & 1)

    def test_outer_only_rescues(self):
        pair = self_matched_ara(0.5, order=256)
        inst = instantiate(pair, k=2048, d_L=30, d_R=30, m_outer=10, seed=4)
        cw = encode(inst, np.zeros(inst.info_len, dtype=np.uint8))
        rng = np.random.default_rng(12)
        rescued = 0
        for _ in range(60):
            rcv = erase(cw, rng, 0.45)
            with_outer = decode(inst, rcv, use_outer=True)
            without = decode(inst, rcv, use_outer=False)
            assert with_outer.success >= without.success  # never harms
            rescued += with_outer.success and not without.success
        assert rescued > 0


class TestSerialization:
    def test_received_word_string_round_trip(self):
        rcv = ReceivedWord(
            u_vals=np.array([0, 1, -1, 1], dtype=np.int8),
            z_vals=np.array([-1, 0], dtype=np.int8),
        )
        text = rcv.to_string()
        assert text == "01e1|e0"
        back = ReceivedWord.from_string(text)
        assert np.array_equal(back.u_vals, rcv.u_vals)
        assert np.array_equal(back.z_vals, rcv.z_vals)

    def test_instance_descriptor(self):
        import json

        pair = self_matched_ara(0.5, order=128)
        inst = instantiate(pair, k=128, d_L=24, d_R=24, m_outer=4, seed=11)
        doc = json.loads(inst.descriptor())
        assert doc["k"] == 128
        assert doc["outer_shape"] == [4, 124]
        assert sum(doc["check_degrees"]) == sum(doc["bit_degrees"])
