import copy
import dataclasses
import hashlib
import itertools

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
    gf2_eliminate,
    gf2_solve_unique,
    graph_reduce_instance,
    instantiate,
    ml_reference_decode,
    outer_decode,
    peel_decode,
)
from aracodes.constructions import self_matched_ara
from aracodes.powerseries import DegreeDistribution, DegreePair, InvalidParameterError, PowerSeries, monomial
from oracles import (
    check_codeword,
    codeword_to_string,
    instance_descriptor,
    received_from_string,
    received_to_string,
    reference_reduce,
)


def regular_pair():
    bit = DegreeDistribution.from_node(monomial(3, 8), exact_mean=3.0)
    check = DegreeDistribution.from_node(monomial(3, 8), exact_mean=3.0, allow_degree_one=True)
    return DegreePair(bit=bit, check=check, family="ARA", p=0.5)


def hand_pair(bit_degree, check_fracs):
    """ARA pair of bit-regular degree ``bit_degree`` and check node fractions ``{degree: fraction}``."""
    check_node = np.zeros(9)
    for degree, frac in check_fracs.items():
        check_node[degree] = frac
    bit = DegreeDistribution.from_node(monomial(bit_degree, 8), exact_mean=float(bit_degree))
    check = DegreeDistribution.from_node(PowerSeries(check_node), allow_degree_one=True)
    return DegreePair(bit=bit, check=check, family="ARA", p=0.5)


#: Hand-made pairs that reach each branch of instantiate's socket repair, as
#: name: (pair, k, d_R, sorted check degrees or the error message).
REPAIR_CASES = {
    "shortfall": (hand_pair(2, {2: 0.5, 4: 0.5}), 5, 8, [2, 2, 2, 4]),
    "surplus": (hand_pair(3, {2: 0.5, 5: 0.5}), 9, 8, [1, 2, 2, 2, 5, 5, 5, 5]),
    "clip": (hand_pair(3, {2: 0.5, 5: 0.5}), 9, 4, [1, 2, 2, 2, 2, 2, 4, 4, 4, 4]),
    "exhaust": (hand_pair(2, {1: 2 / 9, 2: 3 / 9, 3: 3 / 9, 6: 1 / 9}), 5, 6, "would exhaust"),
}


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


def loop_eliminate(A, b):
    """Row-reduce [A | b] over GF(2) with a pivot loop over uint8 rows."""
    A = (np.asarray(A, dtype=np.uint8) & 1).copy()
    b = (np.asarray(b, dtype=np.uint8) & 1).copy()
    rows, cols = A.shape
    pivots = []
    r = 0
    for c in range(cols):
        hit = -1
        for rr in range(r, rows):
            if A[rr, c]:
                hit = rr
                break
        if hit < 0:
            continue
        if hit != r:
            A[[r, hit]] = A[[hit, r]]
            b[[r, hit]] = b[[hit, r]]
        mask = A[:, c].astype(bool)
        mask[r] = False
        A[mask] ^= A[r]
        b[mask] ^= b[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return r, pivots, A, b


def loop_ml_system(inst, rcv):
    """The (A, b) of the full GF(2) solve, built row by row in Python loops."""
    k, mc, m = inst.k, inst.n_checks, inst.m_outer
    erased_u = np.flatnonzero(rcv.u_vals < 0)
    erased_z = np.flatnonzero(rcv.z_vals < 0)
    n_vars = k + len(erased_u) + len(erased_z)
    u_col = {int(j): k + i for i, j in enumerate(erased_u)}
    z_col = {int(j): k + len(erased_u) + i for i, j in enumerate(erased_z)}
    rows, rhs = [], []
    # accumulator: v_j + v_{j-1} + u_j = 0
    for j in range(k):
        row = np.zeros(n_vars, dtype=np.uint8)
        row[j] ^= 1
        if j > 0:
            row[j - 1] ^= 1
        r = 0
        if j in u_col:
            row[u_col[j]] ^= 1
        else:
            r ^= int(rcv.u_vals[j])
        rows.append(row)
        rhs.append(r)
    # checks: sum of socket bits + z_i + z_{i-1} = 0
    for i in range(mc):
        row = np.zeros(n_vars, dtype=np.uint8)
        for t in inst.edge_targets[inst.check_offsets[i] : inst.check_offsets[i + 1]]:
            row[t] ^= 1
        r = 0
        for zi in (i, i - 1):
            if zi < 0:
                continue
            if zi in z_col:
                row[z_col[zi]] ^= 1
            else:
                r ^= int(rcv.z_vals[zi])
        rows.append(row)
        rhs.append(r)
    for j in inst.pilot_set:
        row = np.zeros(n_vars, dtype=np.uint8)
        row[j] = 1
        rows.append(row)
        rhs.append(0)
    for r_out in range(m):
        row = np.zeros(n_vars, dtype=np.uint8)
        row[k - m + r_out] ^= 1
        for i in np.flatnonzero(inst.outer_P[r_out]):
            row[i] ^= 1
        rows.append(row)
        rhs.append(0)
    A = np.array(rows, dtype=np.uint8).reshape(len(rows), n_vars)
    return A, np.array(rhs, dtype=np.uint8)


def random_system(rng, rows, cols, rank_cap=None, consistent=False, top=1):
    """A random [A | b] with entries in 0..top, rank at most rank_cap when given."""
    if rank_cap is None:
        A = rng.integers(0, top + 1, size=(rows, cols), dtype=np.uint8)
    else:
        basis = rng.integers(0, 2, size=(rank_cap, cols), dtype=np.uint8)
        mix = rng.integers(0, 2, size=(rows, rank_cap), dtype=np.uint8)
        A = ((mix @ basis) & 1).astype(np.uint8)
    if consistent:
        b = ((A & 1) @ rng.integers(0, 2, size=cols, dtype=np.uint8) & 1).astype(np.uint8)
    else:
        b = rng.integers(0, top + 1, size=rows, dtype=np.uint8)
    return A, b


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

    def test_matches_loop_reference(self):
        # packed-row elimination against the uint8 pivot loop: equal rank,
        # pivots, reduced A and reduced b, widths crossing 64-bit words, and
        # entries above 1 (some systems draw 0..3 or 0..255) read mod 2
        rng = np.random.default_rng(2024)
        widths = [0, 1, 7, 8, 9, 63, 64, 65, 127, 130]
        kinds = {"deficient": 0, "inconsistent": 0, "full": 0}
        for i in range(2400):
            cols = widths[i // 2 % len(widths)] if i % 2 else int(rng.integers(0, 81))
            rows = int(rng.integers(0, min(2 * cols, 150) + 4))
            cap = int(rng.integers(0, min(rows, cols) + 1)) if i % 3 == 0 else None
            A, b = random_system(rng, rows, cols, cap, consistent=i % 5 == 0, top=(1, 1, 3, 255)[i % 4])
            A0, b0 = A.copy(), b.copy()
            rank, pivots, R, rb = gf2_eliminate(A, b)
            ref = loop_eliminate(A, b)
            assert np.array_equal(A, A0) and np.array_equal(b, b0)  # inputs untouched
            assert rank == ref[0] and pivots == ref[1]
            assert R.dtype == rb.dtype == np.uint8
            assert R.shape == (rows, cols) and rb.shape == (rows,)
            assert np.array_equal(R, ref[2]) and np.array_equal(rb, ref[3])
            if rank < min(rows, cols):
                kinds["deficient"] += 1
            if np.any(rb[rank:]):
                kinds["inconsistent"] += 1
            if rank == cols:
                kinds["full"] += 1
        assert min(kinds.values()) >= 200, kinds

    @pytest.mark.parametrize("shape", [(24, 20), (56, 48), (320, 300)])
    def test_fixed_shapes_match_loop_reference(self, shape):
        # the mean oracle system, the widest outer system the benchmark
        # draws, and one past the size where a single packed int stops paying
        rng = np.random.default_rng(shape[0])
        for _ in range(3):
            A, b = random_system(rng, *shape)
            rank, pivots, R, rb = gf2_eliminate(A, b)
            ref = loop_eliminate(A, b)
            assert rank == ref[0] and pivots == ref[1]
            assert np.array_equal(R, ref[2]) and np.array_equal(rb, ref[3])

    def test_rows_below_the_rank_keep_their_b_bits(self):
        # tall, rank 6 of 12 columns, b not in the column space: the b bits
        # of the 54 zero rows depend on every swap and row sum made
        A, b = random_system(np.random.default_rng(61), 60, 12, rank_cap=6)
        rank, pivots, R, rb = gf2_eliminate(A, b)
        ref = loop_eliminate(A, b)
        assert rank == ref[0] == 6 and pivots == ref[1]
        assert not R[rank:].any() and 0 < rb[rank:].sum() < 60 - rank
        assert np.array_equal(R, ref[2]) and np.array_equal(rb, ref[3])

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (0, 70), (4, 0), (70, 0)])
    def test_empty_systems(self, shape):
        rows, cols = shape
        A = np.zeros(shape, dtype=np.uint8)
        b = np.ones(rows, dtype=np.uint8)
        rank, pivots, R, rb = gf2_eliminate(A, b)
        ref = loop_eliminate(A, b)
        assert rank == ref[0] == 0 and pivots == ref[1] == []
        assert R.shape == shape and rb.shape == (rows,)
        assert np.array_equal(R, ref[2]) and np.array_equal(rb, ref[3])


def loop_solve(A, b):
    """Unique solution of A x = b from the pivot-loop reference, else None."""
    rank, pivots, _, rb = loop_eliminate(A, b)
    if rank < A.shape[1] or np.any(rb[rank:]):
        return None
    x = np.zeros(A.shape[1], dtype=np.uint8)
    x[pivots] = rb[:rank]
    return x


def odd_check_pair():
    """Degree-3 bits against degree-4 checks: socket repair leaves one odd-sized check."""
    bit = DegreeDistribution.from_node(monomial(3, 8), exact_mean=3.0)
    check = DegreeDistribution.from_node(monomial(4, 8), exact_mean=4.0, allow_degree_one=True)
    return DegreePair(bit=bit, check=check, family="ARA", p=0.5)


class TestMLReference:
    @pytest.fixture
    def systems(self, monkeypatch):
        """The (A, b) each ml_reference_decode call hands to gf2_solve_unique."""
        seen = []

        def spy(A, b):
            seen.append((A.copy(), b.copy()))
            return gf2_solve_unique(A, b)

        monkeypatch.setattr(codec, "gf2_solve_unique", spy)
        return seen

    def check_against_loop(self, systems, inst, rcv):
        unique, v = ml_reference_decode(inst, rcv)
        (A, b), = systems
        systems.clear()
        A_ref, b_ref = loop_ml_system(inst, rcv)
        assert A.dtype == b.dtype == np.uint8
        assert A.shape == A_ref.shape and np.array_equal(A, A_ref)
        assert b.shape == b_ref.shape and np.array_equal(b, b_ref)
        x = loop_solve(A_ref, b_ref)
        assert unique == (x is not None)
        if unique:
            assert v.dtype == np.int8 and np.array_equal(v, x[: inst.k])
        else:
            assert v is None
        return unique, v

    def test_matches_loop_build(self, systems):
        # the criterion 09(c) generator: k 6..16, m 0..3, ten draws per word
        pair = self_matched_ara(0.5, order=64)
        rng = np.random.default_rng(909)
        n = unique_count = 0
        while n < 2000:
            k = int(rng.integers(6, 17))
            m = int(rng.integers(0, 4))
            inst = instantiate(pair, k=k, d_L=12, d_R=12, m_outer=m, seed=int(rng.integers(1 << 30)))
            cw = encode(inst, rng.integers(0, 2, inst.info_len, dtype=np.uint8))
            for _ in range(10):
                unique, v = self.check_against_loop(systems, inst, erase(cw, rng, float(rng.uniform(0.1, 0.7))))
                if unique:
                    assert np.array_equal(v, np.cumsum(cw.u) & 1)
                unique_count += unique
                n += 1
        assert 200 <= unique_count <= n - 200

    def test_cached_rows_follow_their_instance(self, systems):
        # two graphs of one shape from different seeds, decoded in turn:
        # each system is built from its own instance's rows
        pair = self_matched_ara(0.5, order=64)
        insts = [instantiate(pair, k=14, d_L=12, d_R=12, m_outer=2, seed=s) for s in (1, 2)]
        assert insts[0].n_checks == insts[1].n_checks
        assert len(insts[0].pilot_set) == len(insts[1].pilot_set)
        assert not np.array_equal(insts[0].edge_targets, insts[1].edge_targets)
        rng = np.random.default_rng(14)
        words = [encode(inst, rng.integers(0, 2, inst.info_len, dtype=np.uint8)) for inst in insts]
        for i in range(40):
            self.check_against_loop(systems, insts[i % 2], erase(words[i % 2], rng, 0.4))
        assert insts[0].ml_rows.shape == insts[1].ml_rows.shape
        assert not np.array_equal(insts[0].ml_rows, insts[1].ml_rows)

    def test_cached_rows_are_read_only(self):
        inst = instantiate(self_matched_ara(0.5, order=64), k=16, d_L=12, d_R=12, m_outer=3, seed=4)
        with pytest.raises(ValueError, match="read-only"):
            inst.ml_rows[0, 0] ^= 1

    def test_decode_and_sweeps_never_build_the_rows(self, monkeypatch):
        from aracodes import sim

        pair = self_matched_ara(0.5, order=64)
        inst = instantiate(pair, k=64, d_L=12, d_R=12, m_outer=4, seed=2)
        cw = encode(inst, np.zeros(inst.info_len, dtype=np.uint8))
        rng = np.random.default_rng(0)
        for _ in range(20):
            decode(inst, erase(cw, rng, 0.4))
        built = [inst]

        def keep(*args, **kwargs):
            built.append(instantiate(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(codec, "instantiate", keep)
        sim.run_sweep(sim.SimConfig(family="self-matched-ara", design_p=0.5, p_start=0.4, p_stop=0.45,
                                    p_step=0.05, k=128, trials=4, m_outer=4, order=64, workers=1))
        assert len(built) == 2
        assert not any("ml_rows" in vars(i) for i in built)

    def test_instance_equality_ignores_the_rows(self):
        inst = instantiate(self_matched_ara(0.5, order=64), k=16, d_L=12, d_R=12, m_outer=3, seed=4)
        twin = copy.copy(inst)  # shares the arrays, not the cache
        inst.ml_rows
        assert "ml_rows" in vars(inst) and "ml_rows" not in vars(twin)
        assert inst == twin
        assert "ml_rows" not in {f.name for f in dataclasses.fields(inst)}

    @pytest.mark.parametrize("name", ["sock_check", "info_mask"])
    def test_word_independent_arrays_are_read_only(self, name):
        inst = instantiate(self_matched_ara(0.5, order=64), k=16, d_L=12, d_R=12, m_outer=3, seed=4)
        with pytest.raises(ValueError, match="read-only"):
            getattr(inst, name)[0] ^= 1

    def test_instantiate_builds_no_cached_array(self):
        inst = instantiate(self_matched_ara(0.5, order=64), k=16, d_L=3, d_R=12, m_outer=2, seed=3)
        assert not {"ml_rows", "sock_check", "info_mask"} & set(vars(inst))
        decode(inst, erase(encode(inst, np.zeros(inst.info_len, dtype=np.uint8)), np.random.default_rng(1), 0.4))
        assert {"sock_check", "info_mask"} <= set(vars(inst)) and "ml_rows" not in vars(inst)

    @pytest.mark.parametrize("name", ["sock_check", "info_mask"])
    def test_instance_equality_ignores_the_word_independent_arrays(self, name):
        inst = instantiate(self_matched_ara(0.5, order=64), k=16, d_L=12, d_R=12, m_outer=3, seed=4)
        twin = copy.copy(inst)  # shares the arrays, not the cache
        getattr(inst, name)
        assert name in vars(inst) and name not in vars(twin)
        assert inst == twin
        assert name not in {f.name for f in dataclasses.fields(inst)}

    # name -> (instance builder, what the instance must show)
    EDGE_INSTANCES = {
        "outer": (lambda: instantiate(self_matched_ara(0.5, order=64), k=16, d_L=12, d_R=12,
                                      m_outer=3, seed=4), lambda inst: inst.m_outer == 3),
        "no-outer": (lambda: instantiate(self_matched_ara(0.5, order=64), k=16, d_L=12, d_R=12,
                                         m_outer=0, seed=4), lambda inst: inst.m_outer == 0),
        "pilots": (lambda: instantiate(self_matched_ara(0.5, order=64), k=16, d_L=3, d_R=12,
                                       m_outer=2, seed=3), lambda inst: len(inst.pilot_set) == 3),
        "odd-check": (lambda: instantiate(odd_check_pair(), k=5, d_L=8, d_R=8, seed=1),
                      lambda inst: sorted(inst.check_degrees.tolist()) == [3, 4, 4, 4]),
    }

    @pytest.mark.parametrize("name", list(EDGE_INSTANCES))
    def test_edge_instances(self, systems, name):
        # no erasures, every position erased, then random draws
        make, shows = self.EDGE_INSTANCES[name]
        inst = make()
        assert shows(inst)
        rng = np.random.default_rng(inst.k)
        cw = encode(inst, rng.integers(0, 2, inst.info_len, dtype=np.uint8))
        v_true = np.cumsum(cw.u) & 1
        clean = ReceivedWord(u_vals=cw.u.astype(np.int8), z_vals=cw.z.astype(np.int8))
        unique, v = self.check_against_loop(systems, inst, clean)
        assert unique and np.array_equal(v, v_true)
        lost = ReceivedWord(u_vals=-np.ones(inst.k, dtype=np.int8), z_vals=-np.ones(inst.n_checks, dtype=np.int8))
        assert self.check_against_loop(systems, inst, lost) == (False, None)
        for p in (0.2, 0.4, 0.6):
            for _ in range(5):
                unique, v = self.check_against_loop(systems, inst, erase(cw, rng, p))
                if unique:
                    assert np.array_equal(v, v_true)

    @pytest.mark.parametrize("name", list(EDGE_INSTANCES))
    def test_word_independent_arrays_follow_their_definition(self, name):
        inst = self.EDGE_INSTANCES[name][0]()
        checks = [i for i, d in enumerate(inst.check_degrees.tolist()) for _ in range(d)]
        assert inst.sock_check.dtype == np.int64 and inst.sock_check.tolist() == checks
        pilots = set(inst.pilot_set.tolist())
        info = [j not in pilots and j < inst.k - inst.m_outer for j in range(inst.k)]
        assert inst.info_mask.dtype == bool and inst.info_mask.tolist() == info
        assert np.count_nonzero(inst.info_mask) == inst.info_len


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

    @pytest.mark.parametrize(
        "name", ["bit_degrees", "check_degrees", "edge_targets", "check_offsets", "pilot_set", "outer_P"]
    )
    def test_arrays_read_only(self, name):
        inst = instantiate(self_matched_ara(0.5, order=128), k=512, d_L=24, d_R=24, m_outer=6, seed=9)
        arr = getattr(inst, name)
        assert arr.size > 0
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1

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
        from aracodes.constructions import build_catalog_pair

        with pytest.raises(ConstructionError):
            instantiate(build_catalog_pair("self-matched-nsira", 0.4, order=64), k=64, d_L=30, d_R=30)

    @pytest.mark.parametrize(
        "k, m_outer", [(0, 0), (-3, 0), (64, -1), (64, 64), (64, 100)]
    )
    def test_empty_sizes_rejected(self, k, m_outer):
        with pytest.raises(InvalidParameterError):
            instantiate(self_matched_ara(0.5, order=64), k=k, d_L=30, d_R=30, m_outer=m_outer)

    @pytest.mark.parametrize("d_L, d_R", [(1, 30), (30, 1)])
    def test_degree_caps_below_two_rejected(self, d_L, d_R):
        with pytest.raises(InvalidParameterError, match="d_L and d_R"):
            instantiate(self_matched_ara(0.5, order=64), k=64, d_L=d_L, d_R=d_R)

    def test_pilots_crowding_the_outer_tail_rejected(self):
        # at d_L = 2 about half the bits are pilots: the 40 tail positions hold
        # more of them than the 24 front positions hold free bits to swap with
        with pytest.raises(ConstructionError, match="too many pilots"):
            instantiate(self_matched_ara(0.5, order=64), k=64, d_L=2, d_R=12, m_outer=40)

    def test_no_information_bits_rejected(self):
        # every bit of degree 3 exceeds d_L = 2, so every bit becomes a pilot
        with pytest.raises(ConstructionError, match="no information bits"):
            instantiate(regular_pair(), k=9, d_L=2, d_R=8, seed=1)
        # two bits, one pilot, one outer parity
        with pytest.raises(ConstructionError, match="no information bits"):
            instantiate(self_matched_ara(0.5, order=64), k=2, d_L=2, d_R=12, m_outer=1, seed=0)

    @pytest.mark.parametrize("name", REPAIR_CASES)
    def test_socket_repair(self, name):
        pair, k, d_R, expected = REPAIR_CASES[name]
        if isinstance(expected, str):
            with pytest.raises(ConstructionError, match=expected):
                instantiate(pair, k=k, d_L=8, d_R=d_R)
        else:
            assert sorted(instantiate(pair, k=k, d_L=8, d_R=d_R).check_degrees.tolist()) == expected

    def test_outputs_match_pinned_digest(self):
        """Every array of a fixed grid of instances, and every error it raises,
        hashed: a rewrite of instantiate must keep each one bit for bit.  A
        change that moves an instance on purpose updates the pin."""
        digest = hashlib.sha256()
        grid = [
            (pair, dict(k=k, d_L=d_L, d_R=d_R, m_outer=m_outer, seed=seed))
            for pair in (self_matched_ara(0.5, order=64), self_matched_ara(0.5, order=256))
            for k, d_L, d_R, m_outer, seed in itertools.product(
                (6, 16, 257, 8192), (3, 12, 30), (3, 12, 30), (0, 4, 13), (0, 1)
            )
        ] + [
            (pair, dict(k=k, d_L=8, d_R=d_R, seed=seed))
            for pair, k, d_R, _ in REPAIR_CASES.values()
            for seed in (0, 1)
        ]
        for pair, kwargs in grid:
            try:
                inst = instantiate(pair, **kwargs)
            except (ConstructionError, InvalidParameterError) as exc:
                digest.update(f"{type(exc).__name__}: {exc};".encode())
                continue
            digest.update(f"k={inst.k};".encode())
            for field in dataclasses.fields(inst)[1:]:
                arr = getattr(inst, field.name)
                digest.update(f"{field.name} {arr.dtype.str} {arr.shape} {arr.flags.writeable};".encode())
                digest.update(arr.tobytes())
        assert digest.hexdigest()[:16] == "a7f484d9b99b2306"


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

    @staticmethod
    def assert_same_residual(rg, ref):
        for field in dataclasses.fields(ref):
            got, want = getattr(rg, field.name), getattr(ref, field.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want), field.name
            else:
                assert type(got) is type(want) and got == want, field.name

    def test_matches_reference_reduce_at_small_k(self):
        # with and without pilots and an outer code, over the whole erasure range
        pair = self_matched_ara(0.5, order=64)
        rng = np.random.default_rng(77)
        for _ in range(60):
            k = int(rng.integers(6, 97))
            inst = instantiate(pair, k=k, d_L=int(rng.choice([3, 12])), d_R=12, m_outer=int(rng.integers(0, 4)),
                               seed=int(rng.integers(1 << 30)))
            cw = encode(inst, rng.integers(0, 2, inst.info_len, dtype=np.uint8))
            for p in (0.05, 0.3, 0.6, 0.9):
                rcv = erase(cw, rng, p)
                self.assert_same_residual(graph_reduce_instance(inst, rcv), reference_reduce(inst, rcv))

    @pytest.mark.parametrize("k, fits_uint32", [(65536, True), (131072, False)])
    def test_matches_reference_reduce_at_both_key_widths(self, k, fits_uint32):
        # the keys are uint32 while (class count << group bits) fits, int64 beyond
        inst = instantiate(self_matched_ara(0.5, order=256), k=k, d_L=30, d_R=30, m_outer=13, seed=5)
        rng = np.random.default_rng(k)
        cw = encode(inst, rng.integers(0, 2, inst.info_len, dtype=np.uint8))
        for p in (0.40, 0.48):
            rcv = erase(cw, rng, p)
            n_classes = int(np.count_nonzero(rcv.u_vals < 0)) + 1
            group_bits = int(np.count_nonzero(rcv.z_vals >= 0)).bit_length()
            assert (n_classes << group_bits < 1 << 32) == fits_uint32
            self.assert_same_residual(graph_reduce_instance(inst, rcv), reference_reduce(inst, rcv))


class TestPeeling:
    def test_degree_one_chain_resolves(self):
        inst = hand_instance(8)
        cw = encode(inst, np.ones(8, dtype=np.uint8))
        rcv = ReceivedWord(
            u_vals=-np.ones(8, dtype=np.int8), z_vals=cw.z.astype(np.int8)
        )
        rg = graph_reduce_instance(inst, rcv)
        # a Python int, which the benchmark's tracer writes out as JSON
        assert type(peel_decode(rg)) is int
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
        # reduced incidence list, on decodes that empty the list and on stalled
        # ones, and on two words of the k = 8192 benchmark instance
        def check(inst, rcv):
            rg = graph_reduce_instance(inst, rcv)
            # peeling finds each class's incidences by this order
            key = rg.inc_cls * len(rg.grp_syndrome) + rg.inc_grp
            assert np.all(key[1:] > key[:-1])
            ref = copy.deepcopy(rg)
            assert peel_decode(rg) == stack_peel(ref)
            for field in ("known", "vals", "grp_syndrome", "inc_grp", "inc_cls"):
                assert np.array_equal(getattr(rg, field), getattr(ref, field)), field
            return len(rg.inc_grp) > 0

        pair = self_matched_ara(0.5, order=64)
        rng = np.random.default_rng(66)
        outcomes = {"emptied": 0, "stalled": 0}
        for s in range(300):
            k = int(rng.integers(48, 97))
            m = int(rng.integers(4, 9))
            inst = instantiate(pair, k=k, d_L=12, d_R=12, m_outer=m, seed=1000 + s)
            cw = encode(inst, rng.integers(0, 2, inst.info_len, dtype=np.uint8))
            stalled = check(inst, erase(cw, rng, float(rng.uniform(0.3, 0.6))))
            outcomes["stalled" if stalled else "emptied"] += 1
        assert min(outcomes.values()) >= 30, outcomes

        inst = instantiate(self_matched_ara(0.5, order=256), k=8192, d_L=30, d_R=30, m_outer=13, seed=5)
        for p in (0.46, 0.48):
            cw = encode(inst, rng.integers(0, 2, inst.info_len, dtype=np.uint8))
            check(inst, erase(cw, rng, p))


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


    def test_leftover_order_does_not_matter(self):
        # the outer solve pairs each degree-2 group's incidences itself, so a
        # shuffled leftover list gives the same verdict and class values
        pair = self_matched_ara(0.5, order=64)
        inst = instantiate(pair, k=64, d_L=12, d_R=12, m_outer=6, seed=21)
        rng = np.random.default_rng(21)
        cw = encode(inst, rng.integers(0, 2, inst.info_len, dtype=np.uint8))
        rg = graph_reduce_instance(inst, erase(cw, rng, 0.45))
        peel_decode(rg)
        assert np.count_nonzero(np.bincount(rg.inc_grp) == 2) > 0
        ref = copy.deepcopy(rg)
        assert outer_decode(ref, inst)
        for seed in range(5):
            shuffled = copy.deepcopy(rg)
            order = np.random.default_rng(seed).permutation(len(rg.inc_grp))
            shuffled.inc_grp, shuffled.inc_cls = rg.inc_grp[order], rg.inc_cls[order]
            assert outer_decode(shuffled, inst)
            assert np.array_equal(shuffled.known, ref.known)
            assert np.array_equal(shuffled.vals, ref.vals)


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
        degree_two_calls = []
        # tiny instances, instances large enough for degree-2 leftovers, and
        # tiny instances with d_L = 3, where every one has pilots
        batches = [((6, 17), (0, 4), 12, 40), ((48, 97), (4, 9), 12, 30), ((8, 33), (0, 4), 3, 60)]
        for k_range, m_range, d_L, n_instances in batches:
            outer_calls.clear()
            for s in range(n_instances):
                k = int(rng.integers(*k_range))
                m = int(rng.integers(*m_range))
                inst = instantiate(pair, k=k, d_L=d_L, d_R=12, m_outer=m, seed=s)
                if d_L == 3:
                    assert len(inst.pilot_set) > 0
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
            degree_two_calls.append(sum(n_two > 0 for n_two in outer_calls))
        assert checked == 1300
        assert degree_two_calls[1] >= 20

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
            res = decode(inst, rcv)
            assert res.success or not res.rescued_by_outer  # a rescue is a success
            rescued += res.rescued_by_outer
        assert rescued > 0

    def test_peel_figures_match_peeling_alone(self):
        # the batch of test_outer_only_rescues, against graph reduction and
        # peeling run directly, with the lost info bits counted one by one
        pair = self_matched_ara(0.5, order=256)
        inst = instantiate(pair, k=2048, d_L=30, d_R=30, m_outer=10, seed=4)
        cw = encode(inst, np.zeros(inst.info_len, dtype=np.uint8))
        info_positions = sorted(set(range(inst.k - inst.m_outer)) - set(inst.pilot_set.tolist()))
        rng = np.random.default_rng(12)
        rescued_with_losses = 0
        for _ in range(60):
            rcv = erase(cw, rng, 0.45)
            res = decode(inst, rcv)
            rg = graph_reduce_instance(inst, rcv)
            peel_decode(rg)
            peeled = bool(rg.known.all())
            v_known = rg.known[rg.cls].tolist()
            lost = sum(
                rcv.u_vals[j] < 0 and not (v_known[j] and (j == 0 or v_known[j - 1]))
                for j in info_positions
            )
            assert (res.success and not res.rescued_by_outer) == peeled
            assert res.success >= peeled  # the outer stage never harms
            assert res.peel_info_bit_failures == lost
            assert res.info_bit_failures == (0 if res.success else res.peel_info_bit_failures)
            rescued_with_losses += res.rescued_by_outer and lost > 0
        assert rescued_with_losses > 0


class TestSerialization:
    def test_received_word_string_round_trip(self):
        rcv = ReceivedWord(
            u_vals=np.array([0, 1, -1, 1], dtype=np.int8),
            z_vals=np.array([-1, 0], dtype=np.int8),
        )
        text = received_to_string(rcv)
        assert text == "01e1|e0"
        back = received_from_string(text)
        assert np.array_equal(back.u_vals, rcv.u_vals)
        assert np.array_equal(back.z_vals, rcv.z_vals)

    def test_codeword_string(self):
        cw = encode(hand_instance(), np.array([1, 0, 0], dtype=np.uint8))
        assert codeword_to_string(cw) == "100|101"

    def test_instance_descriptor(self):
        import json

        pair = self_matched_ara(0.5, order=128)
        inst = instantiate(pair, k=128, d_L=24, d_R=24, m_outer=4, seed=11)
        doc = json.loads(instance_descriptor(inst))
        assert doc["k"] == 128
        assert doc["outer_shape"] == [4, 124]
        assert sum(doc["check_degrees"]) == sum(doc["bit_degrees"])
