"""Line embeddings: chains of distinct sites, each coupled to the next.

A chain is a plain tuple of site ids.  Grids get a deterministic generalized
Hilbert traversal; everything else goes through a budgeted backtracking
search for Hamiltonian (sub)paths.
"""
from __future__ import annotations

from ctagsched.graphs import Architecture, _check_int, _packaged, random_initial_mapping


class EmbeddingBudgetExceeded(RuntimeError):
    """Search budget ran out before finding a path or proving none exists."""


def canonical(chain) -> tuple[int, ...]:
    """The chain or its reverse, whichever is smaller: a chain traversed
    either way is the same embedding."""
    return min(chain, chain[::-1])


def _sgn(x: int) -> int:
    return (x > 0) - (x < 0)


def _gilbert(x, y, ax, ay, bx, by, out):
    # rectangle-splitting recursion for generalized Hilbert curves, after
    # Cerveny's gilbert2d (github.com/jakubcerveny/gilbert, BSD-2)
    w = abs(ax + ay)
    h = abs(bx + by)
    dax, day = _sgn(ax), _sgn(ay)
    dbx, dby = _sgn(bx), _sgn(by)
    if h == 1:
        for _ in range(w):
            out.append((x, y))
            x, y = x + dax, y + day
        return
    if w == 1:
        for _ in range(h):
            out.append((x, y))
            x, y = x + dbx, y + dby
        return
    ax2, ay2 = ax // 2, ay // 2
    bx2, by2 = bx // 2, by // 2
    w2 = abs(ax2 + ay2)
    h2 = abs(bx2 + by2)
    if 2 * w > 3 * h:
        if w2 % 2 and w > 2:
            ax2, ay2 = ax2 + dax, ay2 + day
        _gilbert(x, y, ax2, ay2, bx, by, out)
        _gilbert(x + ax2, y + ay2, ax - ax2, ay - ay2, bx, by, out)
    else:
        if h2 % 2 and h > 2:
            bx2, by2 = bx2 + dbx, by2 + dby
        _gilbert(x, y, bx2, by2, ax2, ay2, out)
        _gilbert(x + bx2, y + by2, ax, ay, bx - bx2, by - by2, out)
        _gilbert(
            x + (ax - dax) + (bx2 - dbx),
            y + (ay - day) + (by2 - dby),
            -bx2,
            -by2,
            -(ax - ax2),
            -(ay - ay2),
            out,
        )


def hilbert_embedding(rows: int, cols: int) -> tuple[int, ...]:
    """Deterministic Hilbert-style Hamiltonian path over grid(rows, cols).

    The rectangle-splitting recursion covers any grid with an even side with
    unit steps; an odd-by-odd grid gets its first row peeled off and walked
    left to right, with the recursion covering the even remainder from the
    cell below the row's end.  rows and cols are plain ints of at least 2.
    """
    _check_int(rows, "rows", 2)
    _check_int(cols, "cols", 2)

    def run(w, h):
        # the recursion only guarantees unit steps when the major axis is
        # even, so an odd side must ride along the minor axis
        out: list[tuple[int, int]] = []
        if w % 2 == 0 and (h % 2 == 1 or w >= h):
            _gilbert(0, 0, w, 0, 0, h, out)
        else:
            _gilbert(0, 0, 0, h, w, 0, out)
        return out

    if rows % 2 == 1 and cols % 2 == 1:
        # no even side to lead with: peel the first row, cover the even
        # remainder starting under the peeled row's last cell
        prefix = [(c, 0) for c in range(cols)]
        sub = run(cols, rows - 1)
        cells = prefix + [(cols - 1 - c, r + 1) for c, r in sub]
    else:
        cells = run(cols, rows)
    return tuple(r * cols + c for c, r in cells)


def find_line_embedding(
    arch: Architecture,
    seed: int = 0,
    length: int | None = None,
    budget: int = 10**6,
) -> tuple[int, ...] | None:
    """Backtracking search for a chain of `length` distinct coupled qubits.

    seed is a plain int, length a plain int from 1 to arch.q, or None for
    arch.q (a full Hamiltonian path), and budget a plain int of at least 0;
    anything else raises ValueError.  Neighbors are tried fewest-onward-moves
    first (Warnsdorff); the seed only perturbs tie order.
    Returns None when the exhausted search proves no such chain exists; raises
    EmbeddingBudgetExceeded after `budget` node expansions, which is an
    "unknown" outcome rather than a proof.  The depth-first search keeps one
    neighbour iterator per path site on an explicit stack, so a chain may be
    longer than the interpreter's recursion limit.
    """
    q = arch.q
    _check_int(seed, "seed")
    _check_int(budget, "budget", 0)
    target = q if length is None else _check_int(length, "length")
    if not 1 <= target <= q:
        raise ValueError(f"length {target} out of range for {q} qubits")
    if target == 1:
        return (0,)
    if target == q and sum(1 for v in range(q) if len(arch.adj[v]) == 1) > 2:
        # more than two pendant vertices cannot all be path endpoints
        return None

    salt = random_initial_mapping(q, seed).pi
    starts = sorted(range(q), key=lambda v: (len(arch.adj[v]), salt[v]))

    expansions = 0
    path: list[int] = []
    on_path = [False] * q
    free_deg = [len(arch.adj[v]) for v in range(q)]

    def extend(v: int):
        # put v on the path; None once the path is long enough, else v's
        # free neighbours in the order they are tried
        nonlocal expansions
        expansions += 1
        if expansions > budget:
            raise EmbeddingBudgetExceeded(f"budget {budget} exhausted")
        path.append(v)
        on_path[v] = True
        for u in arch.adj[v]:
            free_deg[u] -= 1
        if len(path) == target:
            return None
        return iter(sorted(
            (u for u in arch.adj[v] if not on_path[u]),
            key=lambda u: (free_deg[u], salt[u]),
        ))

    for s in starts:
        stack = [extend(s)]
        while stack:
            u = next(stack[-1], None)
            if u is None:
                # every way on from the path's last site failed: retract it
                stack.pop()
                v = path.pop()
                on_path[v] = False
                for w in arch.adj[v]:
                    free_deg[w] += 1
                continue
            nbrs = extend(u)
            if nbrs is None:
                return tuple(path)
            stack.append(nbrs)
    return None


def multi_embeddings(
    arch: Architecture,
    k: int,
    seed: int = 0,
    length: int | None = None,
) -> list[tuple[int, ...]]:
    """Up to k distinct chains from re-seeded searches (reverses dedup).

    The searches stop at the first one that proves no chain exists or
    exhausts its budget; the chains found before it are returned.  k is a
    plain int of at least 1 and seed a plain int."""
    _check_int(seed, "seed")
    _check_int(k, "k", 1)
    found: list[tuple[int, ...]] = []
    seen = set()
    for attempt in range(8 * k + 16):
        try:
            chain = find_line_embedding(arch, seed + attempt, length)
        except EmbeddingBudgetExceeded:
            break
        if chain is None:
            break
        key = canonical(chain)
        if key not in seen:
            seen.add(key)
            found.append(chain)
        if len(found) == k:
            break
    return found


def device_embedding(name: str) -> tuple[int, ...]:
    """Cached chain for a shipped device topology (ibm20 full path, ibm27 the
    longest chain it admits; six pendants rule out a full Hamiltonian path)."""
    return tuple(int(tok) for tok in _packaged(f"embeddings/{name}.txt").split())
