"""Output checker: every operation's exit code and stdout, against a reference.

With a reference (the default seed, and at every seed the operations that
take no random input) the check is exact.  ``verify borders`` exits 1 by
design, because of the documented size-4 two-turn line; its reference holds
that exit code and that line, so it passes only when both repeat.  Without a
reference, seeded operations are checked by invariants that need no reference
output.
"""

from __future__ import annotations

from math import comb, prod


def _fields(out: str) -> dict[str, str]:
    """``key value`` lines as a dict (a repeated key keeps its last value)."""
    return dict(line.split(" ", 1) for line in out.splitlines() if " " in line)


def _count(out, info):
    f = _fields(out)
    n, edges = info["n"], info["edges"]
    k, i = int(f["k"]), int(f["i"])
    if int(f["n"]) != n:
        return f"n {f['n']}, input has {n}"
    if (int(f["k_1"]), int(f["i_1"])) != (n, n):
        return "k_1 or i_1 differs from n"
    if int(f["k_2"]) != edges or int(f["i_2"]) != comb(n, 2) - edges:
        return "k_2 or i_2 differs from the edge or non-edge count"
    if int(f["sigma"]) != k + i or int(f["pi"]) != k * i:
        return "sigma or pi differs from k and i"
    for t in (1, 2, 3):
        kt, it = int(f[f"k_{t}"]), int(f[f"i_{t}"])
        if int(f[f"sigma_{t}"]) != kt + it or int(f[f"pi_{t}"]) != kt * it:
            return f"sigma_{t} or pi_{t} differs from k_{t} and i_{t}"
    return None


def _coloring(out, info):
    f = _fields(out)
    n, r = info["n"], info["r"]
    if (int(f["n"]), int(f["r"]), f["total"]) != (n, r, "yes"):
        return "n, r or total differs from the input"
    counts = [int(f[f"k(G_{c})"]) for c in range(1, r + 1)]
    if any(kc < 1 + n + e for kc, e in zip(counts, info["edges"])):
        return "a color class has fewer cliques than its empty set, vertices and edges"
    if int(f["sum"]) != sum(counts) or int(f["product"]) != prod(counts):
        return "sum or product differs from the per-color counts"
    return None


def _compress(out, info):
    lines = out.splitlines()
    f = _fields(out)
    if int(f["pivots"]) != sum(1 for line in lines if line.startswith("compress ")):
        return "pivot count differs from the number of compress lines"
    if f["code"] == "(none)":
        return "compressed graph is not threshold"
    before, after = (int(x) for x in f["pi"].split(" -> "))
    if after < before:
        return f"pi dropped under compression: {before} -> {after}"
    return None


_INVARIANTS = {"count": _count, "coloring": _coloring, "compress": _compress}


def check(op, rc: int, out: str, want: dict | None, info: dict | None) -> str | None:
    """None when the operation's output is correct, else the reason it is not.

    ``want`` is the committed reference ``{"exit": ..., "stdout": ...}``, or
    None to check the invariants of ``op.kind``; ``info`` is the manifest
    entry (size, edge counts) of the operation's input file.
    """
    if want is not None:
        if rc != want["exit"]:
            return f"exit code {rc}, reference {want['exit']}"
        if out != want["stdout"]:
            return "stdout differs from the reference"
        return None
    if op.kind not in _INVARIANTS:
        return "no reference output"
    if rc != 0:
        return f"exit code {rc}"
    try:
        return _INVARIANTS[op.kind](out, info)
    except (KeyError, ValueError) as exc:
        return f"unparseable output ({exc!r})"
