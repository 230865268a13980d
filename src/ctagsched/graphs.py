"""Problem graphs, hardware coupling graphs, and qubit mappings."""
from __future__ import annotations

import gc
from functools import cached_property, wraps

Edge = tuple[int, int]

# The most sites a device may have.  Architecture.dist builds a row only
# when one is read, but a compile may still read up to q rows of q hop
# counts; the largest device any workload runs has 200 sites.
MAX_SITES = 4096


class GraphFormatError(ValueError):
    """Raised when a graph or architecture file is malformed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _check_int(value, what: str, low: int | None = None):
    """value itself if it is a plain int of at least `low`; anything else
    raises ValueError naming `what`.

    The one check of the library's integer arguments: seeds, beams,
    budgets, sizes, lengths, positions, vertices, sites and mapping
    entries.  A float (3.0, nan and inf too), a str or None would otherwise
    fail later with a TypeError, an IndexError or a KeyError, or pass
    unnoticed, and a bool is refused because True would pass for 1.
    SplitMix64.below, called once per draw with a bound its caller
    computed, and the edge-list parser, which reports line numbers, keep
    their own checks.
    """
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{what} must be at least {low}, got {value}")
    return value


def _nogc(fn):
    """fn, run with the cyclic garbage collector paused.

    The collector is switched off for the call and switched back on after
    it, also when it raises, but only if it was on at entry, so a paused
    call nested in another changes nothing.  The calls that return a whole
    circuit run this way (schedule, prune_pattern, generate_clique_pattern
    and generate_2xn_pattern), and so do the graph builders clique and
    random_graph: a dense compile builds tens of thousands of Gate tuples,
    and a dense graph tens of thousands of edge tuples, which the collector
    would otherwise scan again at each of its passes while they are built.
    None of these calls creates a reference cycle, so the pause holds back
    no memory: reference counting frees all that they drop.  gc.isenabled()
    is one flag for the whole process, so a caller in another thread that
    switches the collector off while such a call runs may find it on again
    afterwards.
    """

    @wraps(fn)
    def paused(*args, **kwargs):
        was = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was:
                gc.enable()

    return paused


def _check_pairs(pairs, what: str, count: int) -> None:
    # the pairs of a ProblemGraph (vertices) or an Architecture (sites): a
    # frozenset of (int, int) tuples, each of two distinct values below
    # count, smaller first; a list of pairs or a pair that is a list is
    # unhashable where the scheduler looks a pair up
    if type(pairs) is not frozenset:
        raise ValueError(f"{what} pairs must be a frozenset, got a {type(pairs).__name__}")
    for e in pairs:
        if type(e) is not tuple or len(e) != 2:
            raise ValueError(f"{what} pair {e!r} is not a tuple of two")
        a, b = _check_int(e[0], what), _check_int(e[1], what)
        if a == b or not (0 <= a < count and 0 <= b < count):
            whats = "vertices" if what == "vertex" else f"{what}s"
            raise ValueError(f"{what} pair {e} is not two distinct {whats} below {count}")
        if a > b:
            raise ValueError(f"{what} pair {e} is not normalized")


def _adjacency(count: int, pairs) -> dict[int, tuple[int, ...]]:
    # sorted neighbour tuple of every vertex 0..count-1
    nbrs: dict[int, list[int]] = {v: [] for v in range(count)}
    for a, b in pairs:
        nbrs[a].append(b)
        nbrs[b].append(a)
    return {v: tuple(sorted(ns)) for v, ns in nbrs.items()}


def _bfs(adj: dict[int, tuple[int, ...]], s: int) -> tuple[list[int], list[int]]:
    """Breadth-first walk from s over adj: the sites it reaches in discovery
    order, each site's neighbours taken in adj order, and every site's hop
    count from s (-1 where it is not reached)."""
    hops = [-1] * len(adj)
    hops[s] = 0
    order = [s]
    for x in order:  # the loop reads `order` as it grows
        h = hops[x] + 1
        for y in adj[x]:
            if hops[y] < 0:
                hops[y] = h
                order.append(y)
    return order, hops


class _Row:
    """Stand-in for row s of arch.dist until that row is read: the first
    index through it builds the row with arch.row(s), which puts the tuple
    in the stand-in's slot, so every later dist[s][t] indexes the tuple."""

    __slots__ = ("arch", "s")

    def __init__(self, arch: Architecture, s: int):
        self.arch, self.s = arch, s

    def __getitem__(self, t):
        return self.arch.row(self.s)[t]


class _Toward(dict):
    """Closer-hop table of one device, arch.toward: toward[t][s] is the
    tuple of arch.adj[s] sites one hop closer to site t, in adj order, and
    () at t itself.

    Row t is built the first time it is read, in O(q + couplings), from
    arch.row(t), which builds that distance row too if no read has yet, and
    kept for the life of the device.  A site has few distinct closer sets,
    so equal tuples are interned and a row holds one pointer per site, as
    the distance row it is read from.
    """

    __slots__ = ("arch", "interned")

    def __init__(self, arch: Architecture):
        super().__init__()
        self.arch = arch
        self.interned: dict[tuple[int, ...], tuple[int, ...]] = {}

    def __missing__(self, t: int) -> tuple[tuple[int, ...], ...]:
        dt, adj = self.arch.row(t), self.arch.adj
        intern = self.interned.setdefault
        hops = (tuple([q for q in nbrs if dt[q] == dt[s] - 1]) for s, nbrs in adj.items())
        row = self[t] = tuple(intern(h, h) for h in hops)
        return row


class _Record:
    """Read-only value record over the fields named in _fields.

    Records are equal when their classes and field values are, hash as the
    tuple of their field values and show as ``Name(field=value, ...)``.  A
    subclass's __init__ writes its fields into the instance dict, where
    cached_property stores its values too; any other assignment or deletion
    raises AttributeError.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple(d[f] for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ProblemGraph(_Record):
    """Undirected simple graph whose edges are the CPHASE gates to execute."""

    _fields = ("n", "edges")

    def __init__(self, n: int, edges: frozenset[Edge]):
        _check_pairs(edges, "vertex", _check_int(n, "n", 1))
        self.__dict__.update(n=n, edges=edges)

    @classmethod
    def _trusted(cls, n: int, edges: frozenset[Edge]) -> ProblemGraph:
        # a graph whose builder already checked n and normalized its edges,
        # as clique, random_graph and _parse_edge_list do: the loop above
        # would only repeat that, at up to n(n-1)/2 edges
        g = object.__new__(cls)
        g.__dict__.update(n=n, edges=edges)
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adj(self) -> dict[int, tuple[int, ...]]:
        return _adjacency(self.n, self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])


def make_problem_graph(n: int, edges) -> ProblemGraph:
    """Build a ProblemGraph from an iterable of (u, v) pairs."""
    norm = set()
    for u, v in edges:
        e = _norm_edge(_check_int(u, "vertex"), _check_int(v, "vertex"))
        if e in norm:
            raise ValueError(f"duplicate edge {e}")
        norm.add(e)
    return ProblemGraph(n, frozenset(norm))


@_nogc
def clique(n: int) -> ProblemGraph:
    """Complete graph on n vertices (density-1 workload), n a plain int of
    at least 2."""
    _check_int(n, "n", 2)
    return ProblemGraph._trusted(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def density(g: ProblemGraph) -> float:
    """Fraction of all possible edges present in g."""
    total = g.n * (g.n - 1) // 2
    return g.m / total if total else 0.0


class SplitMix64:
    """Portable integer-only PRNG (SplitMix64).

    Used for random graphs and random mappings so that seeded results are
    identical across platforms and Python versions; float-driven generators
    are deliberately avoided.
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = _check_int(seed, "seed") & self.MASK

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection (no modulo bias)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next64()
            if x < limit:
                return x % bound

    def shuffle(self, xs: list) -> None:
        for i in range(len(xs) - 1, 0, -1):
            j = self.below(i + 1)
            xs[i], xs[j] = xs[j], xs[i]


def _edge_count(n: int, dens) -> int:
    # only random_graph needs exact decimals, so a schedule never loads them
    from fractions import Fraction

    # the type check comes first: a str, None or a complex would fail the
    # range check with a TypeError, and True would pass for 1
    if type(dens) is bool or not isinstance(dens, (int, float, Fraction)):
        raise ValueError(f"density must be an int, a float or a Fraction, got {dens!r}")
    # the range check comes next: it also turns away nan and inf, which
    # Fraction would reject with a message about its own parser
    if not 0 < dens <= 1:
        raise ValueError(f"density must be in (0, 1], got {dens}")
    # Exact decimal arithmetic: float 0.3 * 1225 rounds down to 367,
    # while the intended value of round(0.3 * 1225) is 368 (half-up).
    d = Fraction(str(dens)) if not isinstance(dens, Fraction) else dens
    total = n * (n - 1) // 2
    m = int(d * total + Fraction(1, 2))
    return m


@_nogc
def random_graph(n: int, dens, seed: int) -> ProblemGraph:
    """Seeded uniform random graph with m = round(density * n(n-1)/2) edges.

    n is a plain int, the density an int, a float or a Fraction in (0, 1]
    and the seed a plain int; any other value raises ValueError before the
    first draw.  m is computed by round-half-up on the exact decimal value
    of the density, and the m edges are a uniform sample (Floyd's algorithm
    over the lexicographic edge enumeration) driven by SplitMix64, one draw
    per step.  When m is every edge, Floyd's algorithm picks every rank
    whatever it draws, so the result is clique(n), built without drawing.
    """
    if _check_int(n, "n", 2) > MAX_SITES:
        # no device could host it, and the edge sample could exhaust memory
        raise ValueError(f"random_graph needs n <= MAX_SITES = {MAX_SITES}, got {n}")
    total = n * (n - 1) // 2
    m = _edge_count(n, dens)
    if m == 0:
        raise ValueError(f"density {dens} rounds to zero edges for n={n}")
    rng = SplitMix64(seed)  # checks the seed, also for a complete graph
    if m == total:
        return clique(n)
    chosen: set[int] = set()
    for j in range(total - m, total):
        t = rng.below(j + 1)
        chosen.add(t if t not in chosen else j)
    # lexicographic rank -> (u, v); ranks ascend, so each one's row u is at
    # or after the last one's, and base is the rank of edge (u, u+1)
    edges = []
    u = base = 0
    for r in sorted(chosen):
        while r - base >= n - 1 - u:
            base += n - 1 - u
            u += 1
        edges.append((u, u + 1 + r - base))
    return ProblemGraph._trusted(n, frozenset(edges))


class Architecture(_Record):
    """Hardware coupling graph: q physical qubits, undirected couplings.

    Besides its fields a device keeps what the scheduler reads of it alone,
    each part built on first read and kept across compiles: at most q
    distance rows (dist), at most q closer-hop rows (toward), and one tuple
    of chains per (n, seed, count) the scheduler asked for (chains).  They
    belong to this instance, not to its value: an equal device built
    separately builds its own.
    """

    _fields = ("q", "couplings", "name")

    def __init__(self, q: int, couplings: frozenset[Edge], name: str = "custom"):
        _check_sites(q, name)
        _check_pairs(couplings, "site", q)
        self.__dict__.update(q=q, couplings=couplings, name=name)
        if q > 1 and len(_bfs(self.adj, 0)[0]) < q:
            raise ValueError(f"architecture {name!r} is not connected")

    @cached_property
    def adj(self) -> dict[int, tuple[int, ...]]:
        return _adjacency(self.q, self.couplings)

    @cached_property
    def dist(self) -> list:
        """Hop distances: dist[s][t] is the hop count from site s to site t.

        Row s is built the first time it is read, by one breadth-first walk
        from s in O(q + couplings), and kept for the life of the device; an
        unread row is a _Row stand-in, a read one a tuple.  A reader may
        keep dist[s] in a local, as score_strategy and _bystander_delta do:
        a stand-in kept that way still reads correctly, but each index
        through it goes through row(s).  A reader that indexes one row many
        times takes the tuple from row(s)."""
        return [_Row(self, s) for s in range(self.q)]

    @cached_property
    def toward(self) -> _Toward:
        """Closer-hop rows (see _Toward), each built on first read."""
        return _Toward(self)

    @cached_property
    def chains(self) -> dict[tuple[int, int, int], tuple[tuple[int, ...], ...]]:
        """Chains of this device, filled by scheduler._line_orders:
        (n, seed, count) -> up to count chains of n sites, best first, and
        () where the search found none."""
        return {}

    def row(self, s: int) -> tuple[int, ...]:
        """Row s of dist as a tuple, built and put in its slot if no read
        has yet."""
        rows = self.dist
        row = rows[s]
        if type(row) is not tuple:
            row = rows[s] = tuple(_bfs(self.adj, s)[1])
        return row

    def coupled(self, a: int, b: int) -> bool:
        return _norm_edge(a, b) in self.couplings

    def is_chain(self, sites) -> bool:
        """True when `sites` are distinct sites of this device, each a plain
        int, and each one is coupled to the next."""
        return (
            len(set(sites)) == len(sites)
            and all(type(s) is int and 0 <= s < self.q for s in sites)
            and all(self.coupled(a, b) for a, b in zip(sites, sites[1:]))
        )


def shortest_dist(arch: Architecture, a: int, b: int) -> int:
    """Hop distance between sites a and b of arch, each a plain int below
    arch.q (anything else raises ValueError); builds row a of arch.dist if
    no read has yet."""
    for what, s in (("a", a), ("b", b)):
        if _check_int(s, what, 0) >= arch.q:
            raise ValueError(f"{what} must be below {arch.q}, got {s}")
    return arch.dist[a][b]


def _check_sites(q: int, name: str) -> None:
    _check_int(q, f"the site count of {name}", 1)
    if q > MAX_SITES:
        raise ValueError(f"{name} has {q} sites, more than the {MAX_SITES} a device may have")


def linear(n: int) -> Architecture:
    """Linear nearest-neighbor chain of n qubits."""
    _check_int(n, "n", 1)
    _check_sites(n, f"linear:{n}")
    return Architecture(n, frozenset((i, i + 1) for i in range(n - 1)), f"linear:{n}")


def grid(rows: int, cols: int) -> Architecture:
    """rows x cols lattice, row-major qubit ids."""
    _check_int(rows, "rows", 1)
    _check_int(cols, "cols", 1)
    _check_sites(rows * cols, f"grid:{rows}x{cols}")
    edges = set()
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.add((i, i + 1))
            if r + 1 < rows:
                edges.add((i, i + cols))
    return Architecture(rows * cols, frozenset(edges), f"grid:{rows}x{cols}")


def _parse_edge_list(text: str, what: str) -> tuple[int, list[Edge]]:
    """Read a 'count m' header and m 'a b' lines over vertices 0..count-1.

    Graph files and coupling files share this format; '#' comments and blank
    lines are skipped.  Returns the count and the normalized pairs in file
    order; every fault raises GraphFormatError with its 1-based line number.
    """
    count = m = header = None
    edges: list[Edge] = []
    seen: set[Edge] = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if count is None:
            if len(parts) != 2:
                raise GraphFormatError("expected header 'count m'", ln)
            try:
                count, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(f"bad header {line!r}", ln) from None
            if count < 1:
                raise GraphFormatError(f"need at least one vertex, got {count}", ln)
            header = ln
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"expected 'a b', got {line!r}", ln)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"non-integer vertex in {line!r}", ln) from None
        if a == b:
            raise GraphFormatError(f"self-loop on vertex {a}", ln)
        if not (0 <= a < count and 0 <= b < count):
            raise GraphFormatError(f"vertex out of range in {line!r}", ln)
        e = _norm_edge(a, b)
        if e in seen:
            raise GraphFormatError(f"duplicate pair {e}", ln)
        seen.add(e)
        edges.append(e)
    if count is None:
        raise GraphFormatError(f"empty {what} file", 1)
    if len(edges) != m:
        raise GraphFormatError(f"header promised {m} pairs, found {len(edges)}", header)
    return count, edges


def _read_utf8(path: str) -> str:
    """Text of an input file (graph, coupling or schedule), without a leading
    UTF-8 byte-order mark; a byte that is not UTF-8 raises GraphFormatError
    at its 1-based line."""
    with open(path, "rb") as fh:
        data = fh.read()
    # a leading byte-order mark is dropped before decoding rather than by
    # utf-8-sig, whose error offsets count from after the mark
    data = data.removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise GraphFormatError(f"byte {data[exc.start]:#04x} is not UTF-8 text", line) from None


def _load_coupling_file(text: str, name: str) -> Architecture:
    q, edges = _parse_edge_list(text, "architecture")
    return Architecture(q, frozenset(edges), name)


def _packaged(relpath: str) -> str:
    from importlib import resources

    return resources.files("ctagsched.data").joinpath(relpath).read_text(encoding="utf-8")


def ibm20() -> Architecture:
    """20-qubit device coupling map (4x5 lattice with sparse verticals)."""
    return _load_coupling_file(_packaged("ibm20.txt"), "ibm20")


def ibm27() -> Architecture:
    """27-qubit heavy-hex device coupling map."""
    return _load_coupling_file(_packaged("ibm27.txt"), "ibm27")


def _spec_ints(spec: str, count: int, form: str) -> list[int]:
    # the `count` integers after the colon, separated by "x"
    fields = spec.split(":", 1)[1].lower().split("x")
    if len(fields) == count:
        try:
            return [int(f) for f in fields]
        except ValueError:
            pass
    raise ValueError(f"bad architecture spec {spec!r}, expected {form}")


def make_architecture(spec: str) -> Architecture:
    """Build an architecture from a spec string.

    Grammar: ``linear:N`` | ``grid:RxC`` | ``ibm20`` | ``ibm27`` | ``file:PATH``.
    """
    spec = spec.strip()
    if spec == "ibm20":
        return ibm20()
    if spec == "ibm27":
        return ibm27()
    if spec.startswith("linear:"):
        return linear(*_spec_ints(spec, 1, "linear:N"))
    if spec.startswith("grid:"):
        return grid(*_spec_ints(spec, 2, "grid:RxC"))
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        return _load_coupling_file(_read_utf8(path), path)
    raise ValueError(f"unknown architecture spec {spec!r}")


def load_problem_graph(path: str) -> ProblemGraph:
    """Read the 'n m' + edge-list format; raises GraphFormatError with a line number."""
    n, edges = _parse_edge_list(_read_utf8(path), "graph")
    return ProblemGraph._trusted(n, frozenset(edges))


def save_problem_graph(g: ProblemGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v in sorted(g.edges):
            fh.write(f"{u} {v}\n")


class Mapping(_Record):
    """Injective placement of logical qubits onto physical qubits: pi[logical] = physical.

    pi is a tuple of plain ints; a negative entry is allowed here, and
    verify reports it as a site the device does not have."""

    _fields = ("pi",)

    def __init__(self, pi: tuple[int, ...]):
        if type(pi) is not tuple:
            raise ValueError(f"a mapping's pi must be a tuple, got a {type(pi).__name__}")
        for p in pi:
            _check_int(p, "a mapping's site")
        if len(set(pi)) != len(pi):
            raise ValueError("mapping is not injective")
        self.__dict__.update(pi=pi)

    @property
    def n(self) -> int:
        return len(self.pi)

    def __getitem__(self, logical: int) -> int:
        return self.pi[logical]

    def inverse(self) -> dict[int, int]:
        return {p: l for l, p in enumerate(self.pi)}


def identity_mapping(n: int) -> Mapping:
    return Mapping(tuple(range(_check_int(n, "n", 0))))


def random_initial_mapping(n: int, seed: int) -> Mapping:
    """Uniform random permutation of n positions from the seeded portable PRNG."""
    perm = list(range(_check_int(n, "n", 0)))
    SplitMix64(seed).shuffle(perm)
    return Mapping(tuple(perm))
