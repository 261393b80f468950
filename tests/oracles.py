"""Test-only views of codec objects: an exhaustive codeword check and text forms."""

import json

import numpy as np

from aracodes.codec import CodeInstance, Codeword, ReceivedWord


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


def codeword_to_string(cw: Codeword) -> str:
    return "".join(str(int(b)) for b in cw.u) + "|" + "".join(str(int(b)) for b in cw.z)


def received_to_string(rcv: ReceivedWord) -> str:
    sym = {-1: "e", 0: "0", 1: "1"}
    return "".join(sym[int(x)] for x in rcv.u_vals) + "|" + "".join(sym[int(x)] for x in rcv.z_vals)


def received_from_string(text: str) -> ReceivedWord:
    u_part, z_part = text.split("|")
    conv = lambda ch: -1 if ch == "e" else int(ch)
    return ReceivedWord(
        u_vals=np.array([conv(c) for c in u_part], dtype=np.int8),
        z_vals=np.array([conv(c) for c in z_part], dtype=np.int8),
    )


def instance_descriptor(inst: CodeInstance) -> str:
    doc = {
        "k": inst.k,
        "family": inst.family,
        "seed": inst.seed,
        "d_L": inst.d_L,
        "d_R": inst.d_R,
        "check_degrees": inst.check_degrees.tolist(),
        "bit_degrees": inst.bit_degrees.tolist(),
        "pilots": inst.pilot_set.tolist(),
        "outer_shape": list(inst.outer_P.shape),
    }
    return json.dumps(doc)
