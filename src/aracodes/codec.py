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

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .powerseries import DegreePair, InvalidParameterError


class ConstructionError(ValueError):
    """Instance quantization could not satisfy the socket-count constraints."""


# ---------------------------------------------------------------------------
# GF(2) linear algebra (a system packed into one Python int)
# ---------------------------------------------------------------------------

def gf2_eliminate(A: np.ndarray, b: np.ndarray) -> tuple[int, list[int], np.ndarray, np.ndarray]:
    """Row-reduce [A | b] over GF(2) to reduced row echelon form.

    All of [A | b] is one Python int, row i at bits i*w to (i+1)*w - 1 with
    w = 8 x the packed row bytes (column c at bit i*w + c, b at i*w + cols).
    A pivot on column c reads the column across all rows with one shift and
    mask, swaps two rows with one xor, and adds the pivot row to every other
    row holding bit c with one carry-free product (column ^ pivot bit) *
    pivot row: a per-row pivot loop's row operations, so even b below the
    rank is the same.  As each pivot touches the whole int, this beats one
    int per row only up to about 200-250 square.  Returns (rank, pivot
    column list, reduced A, reduced b) as new uint8 arrays; the inputs are
    read mod 2 and left unchanged.
    """
    A = np.asarray(A, dtype=np.uint8)
    rows, cols = A.shape
    packed = np.packbits(np.column_stack([A, np.asarray(b, dtype=np.uint8)]) & 1, axis=1, bitorder="little")
    width = packed.shape[1]
    w, X = 8 * width, int.from_bytes(packed.tobytes(), "little")
    ones = int.from_bytes((b"\x01" + bytes(width - 1)) * rows, "little")  # bit 0 of every row
    row_mask = (1 << w) - 1

    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        column = (X >> c) & ones
        at = r * w
        below = column >> at
        if not below:
            continue
        hit = at + (below & -below).bit_length() - 1  # bit 0 of the first row at or below r with bit c
        pivot = (X >> hit) & row_mask
        if hit != at:
            # no row between r and the hit holds bit c, so the swap moves it to row r
            swap = pivot ^ ((X >> at) & row_mask)
            X ^= (swap << at) | (swap << hit)
            column ^= (1 << at) | (1 << hit)
        X ^= (column ^ (1 << at)) * pivot
        pivots.append(c)
        r += 1

    packed = np.frombuffer(X.to_bytes(rows * width, "little"), dtype=np.uint8).reshape(rows, width)
    M = np.unpackbits(packed, axis=1, count=cols + 1, bitorder="little")
    return r, pivots, M[:, :cols], M[:, cols]


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

    @functools.cached_property
    def ml_rows(self) -> np.ndarray:
        """``ml_reference_decode``'s rows over the k punctured-bit columns:
        accumulators, check sockets (repeats cancel), pilots and [outer_P | I].
        No received word changes them; built on first use, read-only."""
        k, mc, m, pilots = self.k, self.n_checks, self.m_outer, self.pilot_set
        rows = np.zeros((k + mc + len(pilots) + m, k), dtype=np.uint8)
        rows[:k] = np.eye(k, dtype=np.uint8) + np.eye(k, k=-1, dtype=np.uint8)
        np.bitwise_xor.at(rows, (k + np.repeat(np.arange(mc), self.check_degrees), self.edge_targets), 1)
        rows[k + mc + np.arange(len(pilots)), pilots] = 1
        rows[len(rows) - m :] = np.hstack([self.outer_P, np.eye(m, dtype=np.uint8)])
        rows.flags.writeable = False
        return rows


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
    d_L: int,
    d_R: int,
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
    check_offsets = np.concatenate([[0], np.cumsum(check_degrees)])

    outer_P = rng.integers(0, 2, size=(m_outer, k - m_outer), dtype=np.uint8)
    arrays = dict(
        bit_degrees=bit_degrees,
        check_degrees=check_degrees,
        edge_targets=edge_targets,
        check_offsets=check_offsets,
        pilot_set=pilot_set,
        outer_P=outer_P,
    )
    for arr in arrays.values():
        arr.flags.writeable = False
    return CodeInstance(k=k, **arrays)


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
    # the parity accumulator telescopes: z_i is the xor of every socket of
    # checks 0..i, one socket prefix read at the end of check i
    sock_prefix = np.zeros(len(inst.edge_targets) + 1, dtype=np.uint8)
    np.bitwise_xor.accumulate(v[inst.edge_targets], out=sock_prefix[1:])
    return Codeword(u=u, z=sock_prefix[inst.check_offsets[1:]])


@dataclass(frozen=True)
class ReceivedWord:
    """Channel output: -1 marks an erasure, otherwise the bit value."""

    u_vals: np.ndarray  # int8, length k
    z_vals: np.ndarray  # int8, length n_checks


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
    class, then group, are the whole of the remaining constraint graph.
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

    cls = np.add.accumulate(erased_u, dtype=np.int64)
    n_classes = int(cls[-1]) + 1 if k else 1
    prefix = np.bitwise_xor.accumulate(np.maximum(u_vals, 0).view(np.uint8))
    starts = erased_u.nonzero()[0]
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
    # after it; the sockets of a trailing unclosed group are dropped
    observed_z = z_vals >= 0
    zo = z_vals[observed_z].astype(np.uint8)
    grp_end = inst.check_offsets[1:][observed_z]  # one past each group's last socket
    closed = inst.edge_targets[: grp_end[-1] if len(zo) else 0]
    grp_size = grp_end.copy()
    grp_size[1:] -= grp_end[:-1]
    sock_grp = np.repeat(np.arange(len(zo)), grp_size)
    # group g's syndrome is z_g ^ z_{g-1} ^ the xor of its sockets' constants
    # (unknown classes hold 0): t_g ^ t_{g-1} for t = zo ^ a socket prefix
    sock_prefix = np.zeros(len(closed) + 1, dtype=np.uint8)
    np.bitwise_xor.accumulate((off ^ vals[cls])[closed], out=sock_prefix[1:])
    t = zo ^ sock_prefix[grp_end]
    grp_syndrome = t.copy()
    grp_syndrome[1:] ^= t[:-1]

    # unknown-class incidences cancelled mod 2: pack (class, group) into one
    # key that sorts like the pair, and keep one key of each odd-length run;
    # known classes take the top key, so they sort into a tail that is cut off
    s = len(zo).bit_length()
    top = np.iinfo(np.int64).max
    cls_key = np.where(known, top, np.arange(n_classes, dtype=np.int64) << s)
    keys = cls_key[cls][closed] | sock_grp
    keys.sort()
    keys = keys[: np.searchsorted(keys, top)]
    # edge[i]: key i opens a run, or i is one past the end of the keys
    edge = np.ones(len(keys) + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    bounds = edge.nonzero()[0]
    odd = keys[bounds[:-1][(bounds[1:] - bounds[:-1]) & 1 == 1]]

    return ResidualGraph(
        n_classes=n_classes,
        cls=cls,
        off=off,
        known=known,
        vals=vals,
        grp_syndrome=grp_syndrome,
        inc_grp=odd & ((1 << s) - 1),
        inc_cls=odd >> s,
    )


# ---------------------------------------------------------------------------
# peeling and outer decoding
# ---------------------------------------------------------------------------

def peel_decode(rg: ResidualGraph) -> int:
    """Resolve degree-1 check groups round by round; returns resolutions.

    Each group keeps its live degree, the sum of its unknown class ids
    (which names the class once the degree is 1) and its syndrome.  Each
    round resolves every class that is the last unknown of some group and
    folds it out of the groups it touches.  The list is sorted by class, so
    a resolved class's incidences are one slice of it, and a round touches
    only those.  Afterwards every incidence left names an unknown class,
    in the list's order.
    """
    known, vals, synd = rg.known, rg.vals, rg.grp_syndrome
    g, c = rg.inc_grp, rg.inc_cls
    n_groups = len(synd)
    degree = np.bincount(g, minlength=n_groups)
    id_sum = np.zeros(n_groups, dtype=np.int64)
    np.add.at(id_sum, g, c)
    # class j's incidences are the cls_deg[j] from first[j] on
    cls_deg = np.bincount(c, minlength=rg.n_classes)
    first = np.add.accumulate(cls_deg) - cls_deg
    owner = np.empty(rg.n_classes, dtype=np.int64)
    resolved = 0
    # every round but the last resolves a class, which bounds the rounds
    for _ in range(rg.n_classes):
        last = (degree == 1).nonzero()[0]
        if not len(last):
            break
        r = id_sum[last]
        known[r] = True
        # synd adds the folded values up (mod 256), so a syndrome is its low
        # bit; a class last in two groups takes the highest group's value and
        # is expanded once
        vals[r] = synd[last] & 1
        owner[r] = last
        r = r[owner[r] == last]
        # the list positions of every resolved class's incidences
        n = cls_deg[r]
        ends = np.add.accumulate(n)
        idx = np.arange(ends[-1]) + np.repeat(first[r] - ends + n, n)
        touched, touched_cls = g[idx], c[idx]
        np.subtract.at(degree, touched, 1)
        np.subtract.at(id_sum, touched, touched_cls)
        np.add.at(synd, touched, vals[touched_cls])
        resolved += len(r)
    synd &= 1
    keep = ~known[c]
    rg.inc_grp, rg.inc_cls = g[keep], c[keep]
    return resolved


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
    g, c = rg.inc_grp, rg.inc_cls
    two = np.bincount(g)[g] == 2
    n_two = int(np.count_nonzero(two)) // 2
    if m == 0 or n_unknown - n_two > m:
        # too few rows for full rank; degree-2 rows alone never suffice,
        # since complementing every unknown satisfies each of them too
        return False

    # sorted by (group, class), each degree-2 group is an adjacent pair
    pairs = np.sort(g[two] * rg.n_classes + c[two])
    A = np.zeros((n_two + m, n_unknown), dtype=np.uint8)
    b = np.zeros(n_two + m, dtype=np.uint8)
    A[np.arange(2 * n_two) // 2, np.searchsorted(unknown, pairs % rg.n_classes)] = 1
    b[:n_two] = rg.grp_syndrome[pairs[::2] // rg.n_classes]

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
    peel_info_bit_failures: int  # info bits peeling alone left unresolved


def decode(inst: CodeInstance, rcv: ReceivedWord) -> DecodeResult:
    """Full decode: graph reduction, peeling, then the outer-code solve.

    The outer stage writes nothing when it fails, so peeling alone succeeded
    exactly when ``success and not rescued_by_outer``.
    """
    rg = graph_reduce_instance(inst, rcv)
    peel_decode(rg)
    v_known = rg.known[rg.cls]
    unresolved = float(np.count_nonzero(~v_known)) / max(inst.k, 1)

    # an info bit is lost when it was erased and its flanking states differ
    k, m = inst.k, inst.m_outer
    erased_u = rcv.u_vals < 0
    u_lost = erased_u & ~v_known
    u_lost[1:] |= erased_u[1:] & ~v_known[:-1]
    info_mask = np.ones(k, dtype=bool)
    info_mask[inst.pilot_set] = False
    if m:
        info_mask[k - m :] = False
    peel_failures = int(np.count_nonzero(u_lost & info_mask))

    peeled = bool(rg.known.all())
    rescued = not peeled and m > 0 and outer_decode(rg, inst)
    success = peeled or rescued
    v_vals = np.where(rg.known[rg.cls], rg.vals[rg.cls] ^ rg.off, -1).astype(np.int8)
    return DecodeResult(
        success=success,
        v_vals=v_vals,
        unresolved_after_peel=unresolved,
        rescued_by_outer=rescued,
        info_bit_failures=0 if success else peel_failures,
        peel_info_bit_failures=peel_failures,
    )


# ---------------------------------------------------------------------------
# brute-force reference decoder (small instances)
# ---------------------------------------------------------------------------

def ml_reference_decode(inst: CodeInstance, rcv: ReceivedWord) -> tuple[bool, Optional[np.ndarray]]:
    """Full GF(2) solve of every constraint; the optimal erasure decoder.

    The unknowns are the k punctured bits, then the erased systematic
    bits, then the erased parity bits.  The rows are the accumulator
    equations v_j + v_{j-1} + u_j = 0, the checks (socket bits plus
    z_i + z_{i-1}), the pilots and the outer constraints, in that order.
    Their punctured-bit columns are the instance's ``ml_rows``; a call
    writes only the erased-bit columns and the right-hand side.  Returns
    (unique, v) where unique says the entire state is pinned by the
    received word.  Intended for small k as a correctness oracle.
    """
    k, mc = inst.k, inst.n_checks
    fixed = inst.ml_rows
    u_lost, z_lost = rcv.u_vals < 0, rcv.z_vals < 0
    erased_u, erased_z = np.flatnonzero(u_lost), np.flatnonzero(z_lost)
    n_eu, n_ez = len(erased_u), len(erased_z)
    A = np.zeros((len(fixed), k + n_eu + n_ez), dtype=np.uint8)
    A[:, :k] = fixed
    A[erased_u, k + np.arange(n_eu)] = 1  # erased u_j in accumulator j
    z_cols = k + n_eu + np.arange(n_ez)
    A[k + erased_z, z_cols] = 1  # erased z_i in check i
    next_z = erased_z + 1 < mc
    A[k + 1 + erased_z[next_z], z_cols[next_z]] = 1  # and in check i + 1

    # accumulator rows hold the received u_j, check rows z_i + z_{i-1}
    rhs = np.zeros(len(fixed), dtype=np.uint8)
    rhs[:k] = np.where(u_lost, 0, rcv.u_vals)
    z_known = np.where(z_lost, 0, rcv.z_vals).astype(np.uint8)
    rhs[k : k + mc] = z_known
    rhs[k + 1 : k + mc] ^= z_known[:-1]

    x = gf2_solve_unique(A, rhs)
    if x is None:
        return False, None
    return True, x[:k].astype(np.int8)
