"""Finite-length code realization, encoding, and erasure decoding.

An instance has three bit layers: k systematic bits feeding an
accumulator whose outputs (the punctured bits, never transmitted) connect
through a random socket permutation to parity checks, which feed a second
accumulator producing the transmitted parity bits.  Decoding first
collapses both accumulator chains against the received values (graph
reduction), then peels degree-1 checks, and finally solves the remaining
unknowns against a high-rate random outer code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .powerseries import DegreePair, InvalidParameterError


class ConstructionError(ValueError):
    """Instance quantization could not satisfy the socket-count constraints."""


# ---------------------------------------------------------------------------
# GF(2) linear algebra (dense, uint8 rows)
# ---------------------------------------------------------------------------

def gf2_eliminate(A: np.ndarray, b: np.ndarray) -> tuple[int, list[int], np.ndarray, np.ndarray]:
    """Row-reduce [A | b] over GF(2).

    Returns (rank, pivot column list, reduced A, reduced b).  Rows of A
    are modified on a copy; b likewise.
    """
    A = (np.asarray(A, dtype=np.uint8) & 1).copy()
    b = (np.asarray(b, dtype=np.uint8) & 1).copy()
    rows, cols = A.shape
    pivots: list[int] = []
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


def gf2_solve_unique(A: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """Solve A x = b over GF(2); returns x iff the solution is unique."""
    rank, pivots, R, rb = gf2_eliminate(A, b)
    if rank < A.shape[1]:
        return None
    if np.any(rb[rank:]):
        return None  # inconsistent; cannot happen for erasure patterns of valid codewords
    x = np.zeros(A.shape[1], dtype=np.uint8)
    x[pivots] = rb[: len(pivots)]
    return x


# ---------------------------------------------------------------------------
# instance construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodeInstance:
    """A concrete Tanner graph drawn from a degree pair."""

    k: int
    bit_degrees: np.ndarray  # degree of each punctured bit (pilots keep theirs)
    check_degrees: np.ndarray
    edge_targets: np.ndarray  # punctured-bit index per check socket
    check_offsets: np.ndarray  # len(check_degrees) + 1 prefix offsets
    pilot_set: np.ndarray  # sorted punctured-bit indices forced to zero
    outer_P: np.ndarray  # m x (k - m) binary matrix
    family: str
    seed: int
    d_L: int
    d_R: int

    @property
    def n_checks(self) -> int:
        return len(self.check_degrees)

    @property
    def n(self) -> int:
        return self.k + self.n_checks

    @property
    def m_outer(self) -> int:
        return self.outer_P.shape[0]

    @property
    def info_len(self) -> int:
        return self.k - len(self.pilot_set) - self.m_outer

    def descriptor(self) -> str:
        doc = {
            "k": self.k,
            "family": self.family,
            "seed": self.seed,
            "d_L": self.d_L,
            "d_R": self.d_R,
            "check_degrees": self.check_degrees.tolist(),
            "bit_degrees": self.bit_degrees.tolist(),
            "pilots": self.pilot_set.tolist(),
            "outer_shape": list(self.outer_P.shape),
        }
        return json.dumps(doc)


def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing to total, proportional to weights."""
    weights = np.maximum(np.asarray(weights, dtype=float), 0.0)
    if weights.sum() <= 0.0:
        raise ConstructionError("no mass to quantize")
    ideal = weights / weights.sum() * total
    counts = np.floor(ideal).astype(int)
    short = total - int(counts.sum())
    if short > 0:
        order = np.argsort(-(ideal - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def instantiate(
    pair: DegreePair,
    k: int,
    d_L: int = 64,
    d_R: int = 64,
    m_outer: int = 0,
    seed: int = 0,
) -> CodeInstance:
    """Scale and quantize a degree pair into a concrete graph.

    Node counts come from largest-remainder rounding; checks above d_R are
    clipped to d_R, bits above d_L become pilots (keeping their degree).
    The socket-count mismatch left by independent rounding is repaired on
    the most numerous check degree, with at most one odd-sized check.
    """
    if pair.family != "ARA":
        raise ConstructionError("finite-length realization currently covers ARA graphs only")
    if d_L < 2 or d_R < 2:
        raise InvalidParameterError("d_L and d_R must be at least 2")
    if k < 1 or not (0 <= m_outer < k):
        raise InvalidParameterError("need k >= 1 and 0 <= m_outer < k")
    rng = np.random.default_rng(seed)

    bit_fracs = pair.bit.node.coeffs.copy()
    if bit_fracs[:2].sum() > 1e-9:
        raise ConstructionError("bit distribution has degree-0/1 mass")
    bit_counts = _largest_remainder(bit_fracs, k)
    bit_degrees = np.repeat(np.arange(len(bit_counts)), bit_counts)
    bit_degrees = rng.permutation(bit_degrees)

    # pilots must stay clear of the outer-coded tail positions
    pilot_mask = bit_degrees > d_L
    if m_outer > 0:
        tail = np.flatnonzero(pilot_mask[k - m_outer :]) + (k - m_outer)
        front_free = np.flatnonzero(~pilot_mask[: k - m_outer])
        if len(tail) > len(front_free):
            raise ConstructionError("too many pilots to keep the outer-coded tail clear")
        for t, f in zip(tail, front_free[: len(tail)]):
            bit_degrees[t], bit_degrees[f] = bit_degrees[f], bit_degrees[t]
        pilot_mask = bit_degrees > d_L
    pilot_set = np.flatnonzero(pilot_mask)
    if k - len(pilot_set) - m_outer < 1:
        raise ConstructionError("pilots and outer parities leave no information bits")
    n_edges = int(bit_degrees.sum())

    check_fracs = pair.check.node.coeffs.copy()
    mean_check = float(
        np.dot(np.arange(len(check_fracs)), check_fracs) / max(check_fracs.sum(), 1e-300)
    )
    n_checks = max(1, int(round(n_edges / mean_check)))
    check_counts = _largest_remainder(check_fracs, n_checks)
    if len(check_counts) > d_R + 1:
        check_counts[d_R] += int(check_counts[d_R + 1 :].sum())
        check_counts = check_counts[: d_R + 1]
    check_degrees = np.repeat(np.arange(len(check_counts)), check_counts)

    deficit = n_edges - int(check_degrees.sum())
    if len(check_degrees) == 0:
        raise ConstructionError("no check nodes after quantization")
    degrees_present, present_counts = np.unique(check_degrees, return_counts=True)
    d_star = int(degrees_present[np.argmax(present_counts)])
    if deficit > 0:
        extra = [d_star] * (deficit // d_star)
        if deficit % d_star:
            extra.append(deficit % d_star)
        check_degrees = np.concatenate([check_degrees, extra]).astype(int)
    elif deficit < 0:
        remove = (-deficit) // d_star
        leftover = (-deficit) % d_star
        star_idx = np.flatnonzero(check_degrees == d_star)
        if len(star_idx) < remove + (1 if leftover else 0):
            raise ConstructionError("socket repair would exhaust the dominant check degree")
        keep = np.ones(len(check_degrees), dtype=bool)
        keep[star_idx[:remove]] = False
        if leftover:
            check_degrees[star_idx[remove]] = d_star - leftover
        check_degrees = check_degrees[keep]
    check_degrees = rng.permutation(check_degrees)
    if int(check_degrees.sum()) != n_edges:
        raise ConstructionError("socket counts failed to match after repair")

    perm = rng.permutation(n_edges)
    bit_sockets = np.repeat(np.arange(k), bit_degrees)
    edge_targets = bit_sockets[perm]
    check_offsets = np.concatenate([[0], np.cumsum(check_degrees)]).astype(np.int64)

    outer_P = rng.integers(0, 2, size=(m_outer, k - m_outer), dtype=np.uint8)
    for arr in (bit_degrees, check_degrees, edge_targets, check_offsets, pilot_set, outer_P):
        arr.flags.writeable = False
    return CodeInstance(
        k=k,
        bit_degrees=bit_degrees,
        check_degrees=check_degrees.astype(np.int64),
        edge_targets=edge_targets.astype(np.int64),
        check_offsets=check_offsets,
        pilot_set=pilot_set.astype(np.int64),
        outer_P=outer_P,
        family=pair.family,
        seed=seed,
        d_L=d_L,
        d_R=d_R,
    )


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Codeword:
    u: np.ndarray  # systematic bits
    z: np.ndarray  # parity bits

    @property
    def n(self) -> int:
        return len(self.u) + len(self.z)

    def to_string(self) -> str:
        return "".join(str(int(b)) for b in self.u) + "|" + "".join(str(int(b)) for b in self.z)


def encode(inst: CodeInstance, info: np.ndarray) -> Codeword:
    """Systematic encoding: accumulate, permute into checks, accumulate.

    Pilot positions have their systematic bit chosen so the corresponding
    punctured bit is zero; the last m systematic bits force the punctured
    bits to satisfy the outer code.
    """
    info = (np.asarray(info, dtype=np.uint8) & 1).astype(np.uint8)
    k, m = inst.k, inst.m_outer
    pilots = inst.pilot_set
    expected = k - len(pilots) - m
    if len(info) != expected:
        raise InvalidParameterError(f"expected {expected} info bits, got {len(info)}")

    # punctured-bit prefix within each pilot-delimited segment
    pilot_mask = np.zeros(k, dtype=bool)
    pilot_mask[pilots] = True
    carry_positions = ~pilot_mask
    if m:
        carry_positions[k - m :] = False
    u_work = np.zeros(k, dtype=np.uint8)
    u_work[carry_positions] = info
    prefix = np.bitwise_xor.accumulate(u_work)
    # position j restarts from the prefix at the last pilot at or before it
    seg_start = np.concatenate([[0], prefix[pilots]]).astype(np.uint8)
    v = prefix ^ seg_start[np.cumsum(pilot_mask)]
    if m:
        v[k - m :] = (inst.outer_P @ v[: k - m]) & 1

    u = v ^ np.concatenate([[0], v[:-1]]).astype(np.uint8)
    w = (
        np.bitwise_xor.reduceat(v[inst.edge_targets], inst.check_offsets[:-1])
        if inst.n_checks
        else np.empty(0, np.uint8)
    )
    return Codeword(u=u, z=np.bitwise_xor.accumulate(w))


def check_codeword(inst: CodeInstance, cw: Codeword) -> bool:
    """Exhaustively verify all graph, pilot, and outer-code constraints."""
    v = (np.cumsum(cw.u, dtype=np.int64) & 1).astype(np.uint8)
    w = np.bitwise_xor.reduceat(v[inst.edge_targets], inst.check_offsets[:-1])
    z = (np.cumsum(w, dtype=np.int64) & 1).astype(np.uint8)
    if not np.array_equal(z, cw.z):
        return False
    if np.any(v[inst.pilot_set]):
        return False
    m = inst.m_outer
    if m:
        want = (inst.outer_P @ v[: inst.k - m]) & 1
        if not np.array_equal(v[inst.k - m :], want):
            return False
    return True


@dataclass(frozen=True)
class ReceivedWord:
    """Channel output: -1 marks an erasure, otherwise the bit value."""

    u_vals: np.ndarray  # int8, length k
    z_vals: np.ndarray  # int8, length n_checks

    def to_string(self) -> str:
        sym = {-1: "e", 0: "0", 1: "1"}
        return "".join(sym[int(x)] for x in self.u_vals) + "|" + "".join(
            sym[int(x)] for x in self.z_vals
        )

    @classmethod
    def from_string(cls, text: str) -> "ReceivedWord":
        u_part, z_part = text.split("|")
        conv = lambda ch: -1 if ch == "e" else int(ch)
        return cls(
            u_vals=np.array([conv(c) for c in u_part], dtype=np.int8),
            z_vals=np.array([conv(c) for c in z_part], dtype=np.int8),
        )


# ---------------------------------------------------------------------------
# graph reduction
# ---------------------------------------------------------------------------

@dataclass
class ResidualGraph:
    """Working state of a single decode after collapsing both accumulators.

    Punctured bits merge into equality classes (one per erased systematic
    bit, plus the anchored prefix class); checks merge into groups between
    observed parity bits.  Each group keeps a running syndrome, and the
    live (group, unknown class) incidences, cancelled mod 2 and sorted by
    group, are the whole of the remaining constraint graph.
    """

    n_classes: int
    cls: np.ndarray  # class id per punctured bit
    off: np.ndarray  # value offset of each bit within its class
    known: np.ndarray  # per class
    vals: np.ndarray  # per class
    grp_syndrome: np.ndarray
    inc_grp: np.ndarray  # group of each live incidence
    inc_cls: np.ndarray  # unknown class of each live incidence


def graph_reduce_instance(inst: CodeInstance, rcv: ReceivedWord) -> ResidualGraph:
    """Collapse both accumulator chains against the received word.

    Known parity bits close check groups with a definite syndrome; a
    trailing run of erased parity bits leaves an unclosed group that
    carries no usable constraint and is dropped.  Known systematic bits
    chain punctured bits into affine equality classes; pilots enter as
    known-zero side information regardless of channel erasures.
    """
    k = inst.k
    u_vals, z_vals = rcv.u_vals, rcv.z_vals
    erased_u = u_vals < 0

    cls = np.cumsum(erased_u, dtype=np.int64)
    n_classes = int(cls[-1]) + 1 if k else 1
    u_masked = np.where(erased_u, 0, u_vals).astype(np.uint8)
    prefix = np.bitwise_xor.accumulate(u_masked)
    starts = np.flatnonzero(erased_u)
    base = np.zeros(n_classes, dtype=np.uint8)
    if len(starts):
        base[1:] = prefix[starts]
    off = prefix ^ base[cls]

    known = np.zeros(n_classes, dtype=bool)
    vals = np.zeros(n_classes, dtype=np.uint8)
    known[0] = True  # anchored to the virtual zero state before the first bit
    pc = cls[inst.pilot_set]
    known[pc] = True
    vals[pc] = off[inst.pilot_set]

    # check i joins the group closed by the first observed parity bit at or
    # after it; the trailing unclosed group, if any, has index n_obs
    observed_z = z_vals >= 0
    grp_of_check = np.cumsum(observed_z, dtype=np.int64) - observed_z
    zo = z_vals[observed_z].astype(np.uint8)
    n_obs = len(zo)

    sock_grp = np.repeat(grp_of_check, inst.check_degrees)
    sock_cls = cls[inst.edge_targets]
    sock_const = off[inst.edge_targets] ^ vals[sock_cls]  # unknown classes hold 0
    # a float64 bincount counts the sockets of value 1 per group exactly
    flips = np.bincount(sock_grp, weights=sock_const, minlength=n_obs + 1)[:n_obs] % 2
    grp_syndrome = (zo ^ np.concatenate([[0], zo[:-1]]) ^ flips.astype(np.uint8)).astype(np.uint8)

    # unknown-class incidences cancelled mod 2: pack (group, class) into one
    # key that sorts like the pair, and keep one key of each odd-length run
    live = (sock_grp < n_obs) & ~known[sock_cls]
    s = n_classes.bit_length()
    keys = ((sock_grp << s) | sock_cls)[live]
    keys.sort()
    # edge[i]: key i opens a run, or i is one past the end of the keys
    edge = np.ones(len(keys) + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)
    odd = keys[bounds[:-1][np.diff(bounds) & 1 == 1]]

    return ResidualGraph(
        n_classes=n_classes,
        cls=cls,
        off=off,
        known=known,
        vals=vals,
        grp_syndrome=grp_syndrome,
        inc_grp=odd >> s,
        inc_cls=odd & ((1 << s) - 1),
    )


# ---------------------------------------------------------------------------
# peeling and outer decoding
# ---------------------------------------------------------------------------

def peel_decode(rg: ResidualGraph) -> int:
    """Resolve degree-1 check groups round by round; returns resolutions.

    Each round resolves every class that is the last unknown of some
    group, folds the resolved values into their groups' syndromes and
    drops their incidences, so afterwards every incidence left names an
    unknown class.  The list stays sorted by group, so an incidence is
    its group's last exactly when its group differs from both neighbours'.
    """
    known, vals, synd = rg.known, rg.vals, rg.grp_syndrome
    g, c = rg.inc_grp, rg.inc_cls
    n_known = np.count_nonzero(known)
    # edge[i]: incidence i opens a group, or i is one past the end of the list
    edge = np.ones(len(g) + 1, dtype=bool)
    # every round but the last resolves a class, which bounds the rounds
    for _ in range(rg.n_classes):
        n = len(g)
        np.not_equal(g[1:], g[:-1], out=edge[1:n])
        edge[n] = True
        last = np.flatnonzero(edge[:n] & edge[1 : n + 1])
        if not len(last):
            break
        resolved = c[last]
        known[resolved] = True
        vals[resolved] = synd[g[last]]
        # unknown classes hold 0, so only this round's resolutions fold in
        ones = g[vals[c] == 1]
        synd ^= (np.bincount(ones, minlength=len(synd)) & 1).astype(np.uint8)
        keep = np.flatnonzero(~known[c])
        g, c = g[keep], c[keep]
    rg.inc_grp, rg.inc_cls = g, c
    return int(np.count_nonzero(known) - n_known)


def outer_decode(rg: ResidualGraph, inst: CodeInstance) -> bool:
    """Solve the unknowns left after peeling against the outer code.

    One GF(2) system over the unknown classes: a row x_a + x_b = syndrome
    per leftover degree-2 group, and a row per outer constraint
    [outer_P | I] written in class terms.  It succeeds exactly when that
    system has full column rank.  On success the class values in ``rg``
    are filled in.
    """
    unknown = np.flatnonzero(~rg.known)
    n_unknown = len(unknown)
    if n_unknown == 0:
        return True
    m = inst.m_outer
    # incidences are sorted by group, so each degree-2 group is an adjacent pair
    g, c = rg.inc_grp, rg.inc_cls
    two = np.bincount(g)[g] == 2
    n_two = int(np.count_nonzero(two)) // 2
    if m == 0 or n_unknown - n_two > m:
        # too few rows for full rank; degree-2 rows alone never suffice,
        # since complementing every unknown satisfies each of them too
        return False

    A = np.zeros((n_two + m, n_unknown), dtype=np.uint8)
    b = np.zeros(n_two + m, dtype=np.uint8)
    A[np.arange(2 * n_two) // 2, np.searchsorted(unknown, c[two])] = 1
    b[:n_two] = rg.grp_syndrome[g[two][::2]]

    # outer rows: position j holds x_cls[j] ^ const[j]; each unknown class
    # is a contiguous run of positions, so its column is an xor over the run
    head = inst.k - m
    const = rg.off ^ (rg.vals & rg.known)[rg.cls]
    # uint8 sums wrap mod 256, which keeps their parity
    b[n_two:] = (inst.outer_P @ const[:head] + const[head:]) & 1
    pos = np.flatnonzero(~rg.known[rg.cls])
    H = np.zeros((m, len(pos)), dtype=np.uint8)
    front = pos < head
    H[:, front] = inst.outer_P[:, pos[front]]
    tail = np.flatnonzero(~front)
    H[pos[tail] - head, tail] = 1
    runs = np.flatnonzero(np.diff(rg.cls[pos], prepend=-1))
    A[n_two:] = np.bitwise_xor.reduceat(H, runs, axis=1)

    x = gf2_solve_unique(A, b)
    if x is None:
        return False
    rg.vals[unknown] = x
    rg.known[unknown] = True
    return True


@dataclass(frozen=True)
class DecodeResult:
    success: bool
    v_vals: np.ndarray  # int8; -1 where unresolved
    unresolved_after_peel: float  # fraction of punctured bits
    rescued_by_outer: bool
    info_bit_failures: int
    info_len: int


def decode(inst: CodeInstance, rcv: ReceivedWord, use_outer: bool = True) -> DecodeResult:
    """Full decode: graph reduction, peeling, then the outer-code solve."""
    rg = graph_reduce_instance(inst, rcv)
    peel_decode(rg)
    unresolved = float(np.count_nonzero(~rg.known[rg.cls])) / max(inst.k, 1)
    rescued = False
    if not rg.known.all() and use_outer and inst.m_outer > 0:
        if outer_decode(rg, inst):
            rescued = True
    success = bool(rg.known.all())

    v_known = rg.known[rg.cls]
    v_vals = np.where(v_known, rg.vals[rg.cls] ^ rg.off, -1).astype(np.int8)

    # an info bit is lost when it was erased and its flanking states differ
    k, m = inst.k, inst.m_outer
    erased_u = rcv.u_vals < 0
    prev_known = np.concatenate([[True], v_known[:-1]])
    u_lost = erased_u & ~(v_known & prev_known)
    info_mask = np.ones(k, dtype=bool)
    info_mask[inst.pilot_set] = False
    if m:
        info_mask[k - m :] = False
    failures = int(np.count_nonzero(u_lost & info_mask))
    return DecodeResult(
        success=success,
        v_vals=v_vals,
        unresolved_after_peel=unresolved,
        rescued_by_outer=rescued and success,
        info_bit_failures=failures,
        info_len=inst.info_len,
    )


# ---------------------------------------------------------------------------
# brute-force reference decoder (small instances)
# ---------------------------------------------------------------------------

def ml_reference_decode(inst: CodeInstance, rcv: ReceivedWord) -> tuple[bool, Optional[np.ndarray]]:
    """Full GF(2) solve of every constraint; the optimal erasure decoder.

    Returns (unique, v) where unique says the entire state is pinned by
    the received word.  Intended for small k as a correctness oracle.
    """
    k, mc, m = inst.k, inst.n_checks, inst.m_outer
    erased_u = np.flatnonzero(rcv.u_vals < 0)
    erased_z = np.flatnonzero(rcv.z_vals < 0)
    n_vars = k + len(erased_u) + len(erased_z)
    u_col = {int(j): k + i for i, j in enumerate(erased_u)}
    z_col = {int(j): k + len(erased_u) + i for i, j in enumerate(erased_z)}

    rows = []
    rhs = []
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

    x = gf2_solve_unique(np.array(rows, dtype=np.uint8), np.array(rhs, dtype=np.uint8))
    if x is None:
        return False, None
    return True, x[:k].astype(np.int8)
