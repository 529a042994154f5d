"""Quivers bound by admissible monomial ideals.

A path is stored as the tuple of arrow ids in application order, so the
composite usually written a_l ... a_2 a_1 is the tuple (a_1, a_2, ..., a_l).
A monomial ideal is a set of generator paths of length at least two; a path
survives modulo the ideal when no generator occurs as a contiguous factor.
Admissibility is decided exactly: the surviving paths of a bound quiver form
a finite set, with per vertex nilpotency bounds, or the search proves the set
infinite by pumping a repeated suffix state.  One depth-first walk from each
vertex does both jobs: the surviving paths it visits on the way are the path
table of the bound quiver, the hom bases of its path category.
"""

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from .errors import CapExceededError, NotAdmissibleError, PreconditionError


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Path:
    """A directed path; arrows listed in application order (first applied first)."""

    source: str
    target: str
    arrows: Tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.arrows)

    def contains_factor(self, factor: Tuple[str, ...]) -> bool:
        n, m = len(self.arrows), len(factor)
        return any(self.arrows[i:i + m] == factor for i in range(n - m + 1))

    def __repr__(self):
        if not self.arrows:
            return f"e_{self.source}"
        return "*".join(reversed(self.arrows))


class Quiver:
    """A finite directed multigraph with named vertices and arrows."""

    def __init__(self, vertices: List[str], arrows: List[Arrow]):
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex names")
        names = [a.name for a in arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        vset = set(vertices)
        for a in arrows:
            if a.source not in vset or a.target not in vset:
                raise ValueError(f"arrow {a.name} has endpoint outside the quiver")
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)
        self.arrow_by_name = {a.name: a for a in arrows}
        self._out: Dict[str, List[Arrow]] = {v: [] for v in vertices}
        for a in arrows:
            self._out[a.source].append(a)
        for v in self._out:
            self._out[v].sort(key=lambda a: a.name)

    def out_arrows(self, v: str) -> List[Arrow]:
        return list(self._out[v])

    def trivial_path(self, v: str) -> Path:
        if v not in self._out:
            raise ValueError(f"no vertex {v}")
        return Path(v, v, ())

    def path(self, arrow_names: List[str]) -> Path:
        """Build a path from arrow names in application order."""
        if not arrow_names:
            raise ValueError("empty arrow list; use trivial_path")
        arrows = [self.arrow_by_name[n] for n in arrow_names]
        for a, b in zip(arrows, arrows[1:]):
            if a.target != b.source:
                raise ValueError(f"arrows {a.name}, {b.name} do not compose")
        return Path(arrows[0].source, arrows[-1].target, tuple(arrow_names))

    def __eq__(self, other):
        return (isinstance(other, Quiver) and self.vertices == other.vertices
                and self.arrows == other.arrows)

    def __hash__(self):
        return hash((self.vertices, self.arrows))


@dataclass(frozen=True)
class MonomialIdeal:
    generators: FrozenSet[Path] = field(default_factory=frozenset)

    def __post_init__(self):
        for g in self.generators:
            if g.length < 2:
                raise PreconditionError(f"ideal generator {g!r} has length {g.length} < 2")

    def kills(self, p: Path) -> bool:
        return any(p.contains_factor(g.arrows) for g in self.generators)

    def kills_suffix(self, arrows: Tuple[str, ...]) -> bool:
        """True when some generator is a suffix of the given arrow word."""
        return any(len(g.arrows) <= len(arrows)
                   and arrows[len(arrows) - len(g.arrows):] == g.arrows
                   for g in self.generators)


def is_admissible(quiver: Quiver, ideal: MonomialIdeal, cap: int = 32) -> Optional[Dict[str, int]]:
    """Decide admissibility; returns the minimal nilpotency bound per vertex.

    Returns None when the surviving paths are proven infinite (a suffix state
    repeats along one walk, so it can be pumped).  Raises CapExceededError
    when a surviving path of length cap is met before either decision; that
    is reported distinctly because it is an artifact limit, not a proof.
    """
    return _surviving_paths(quiver, ideal, cap)[0]


def _surviving_paths(quiver: Quiver, ideal: MonomialIdeal, cap: int) -> Tuple:
    """`is_admissible`'s bounds and, if they are not None, every surviving
    path keyed by (source, target) and sorted by (length, arrows): the walk
    visits each surviving path exactly once when the ideal is admissible."""
    for g in ideal.generators:
        try:
            built = quiver.path(list(g.arrows))
        except (KeyError, ValueError) as exc:
            raise PreconditionError(f"ideal generator {g!r} is not a path: {exc}")
        if (built.source, built.target) != (g.source, g.target):
            raise PreconditionError(f"ideal generator {g!r} has wrong endpoints")
    suffix_len = max((g.length for g in ideal.generators), default=1) - 1
    # max length of a surviving path with source or target v
    touch = {v: 0 for v in quiver.vertices}
    table = {(v, w): [] for v in quiver.vertices for w in quiver.vertices}

    def walk(source: str) -> bool:
        """Depth first from source over the surviving paths, on a stack of
        (word, its remaining out arrows, its suffix state) frames, so that no
        path length reaches the recursion limit.  Returns False when a
        repeated suffix state proves non-admissibility."""
        seen_states, stack = set(), []

        def enter(vertex: str, word: Tuple[str, ...], state):
            if len(word) >= cap:
                raise CapExceededError(
                    f"surviving path of length {cap} reached; raise the cap to decide")
            seen_states.add(state)
            stack.append((word, iter(quiver.out_arrows(vertex)), state))

        enter(source, (), (source, ()))
        while stack:
            arrows, pending, top_state = stack[-1]
            a = next(pending, None)
            if a is None:
                stack.pop()
                seen_states.discard(top_state)
                continue
            word = arrows + (a.name,)
            if ideal.kills_suffix(word):
                continue
            state = (a.target, word[-suffix_len:] if suffix_len else ())
            if state in seen_states:
                return False
            table[(source, a.target)].append(Path(source, a.target, word))
            length = len(word)
            if length > touch[a.target]:
                touch[a.target] = length
            if length > touch[source]:
                touch[source] = length
            enter(a.target, word, state)
        return True

    for v in quiver.vertices:
        table[(v, v)].append(quiver.trivial_path(v))
        if not walk(v):
            return None, table
    for paths in table.values():
        paths.sort(key=lambda p: (p.length, p.arrows))
    return {v: touch[v] + 1 for v in quiver.vertices}, table


class BoundQuiver:
    """A quiver with an admissible monomial ideal, its nilpotency bounds and
    its surviving paths, both from one walk (`_surviving_paths`)."""

    def __init__(self, quiver: Quiver, ideal: MonomialIdeal = MonomialIdeal(),
                 cap: int = 32):
        bounds, paths = _surviving_paths(quiver, ideal, cap)
        if bounds is None:
            raise NotAdmissibleError(
                "ideal is not admissible: surviving paths can be pumped")
        self.quiver = quiver
        self.ideal = ideal
        self.bounds = bounds
        self._paths = paths

    def all_paths(self) -> Dict[Tuple[str, str], List[Path]]:
        """Every surviving path, keyed by (source, target), canonically sorted."""
        return self._paths

    def paths(self, v: str, w: str) -> List[Path]:
        return list(self.all_paths()[(v, w)])

    def __eq__(self, other):
        return (isinstance(other, BoundQuiver) and self.quiver == other.quiver
                and self.ideal == other.ideal)

    def __hash__(self):
        return hash((self.quiver, self.ideal))


def enumerate_paths(bq: BoundQuiver, v: str, w: str) -> List[Path]:
    """Surviving paths from v to w, sorted by (length, arrow names)."""
    if v not in bq.quiver.vertices or w not in bq.quiver.vertices:
        raise ValueError(f"no vertex pair ({v}, {w})")
    return bq.paths(v, w)


def opposite(bq: BoundQuiver) -> BoundQuiver:
    """Reverse every arrow; ideal generators reverse their application order.

    Arrow names are kept, so opposite(opposite(bq)) is structurally equal
    to bq.  Reversal keeps the surviving path lengths, and the longest is
    one less than the largest bound, so that bound is the cap of the walk
    (the empty quiver has no bound and walks nothing).
    """
    q = bq.quiver
    op_arrows = [Arrow(a.name, a.target, a.source) for a in q.arrows]
    op_quiver = Quiver(list(q.vertices), op_arrows)
    op_gens = frozenset(Path(g.target, g.source, tuple(reversed(g.arrows)))
                        for g in bq.ideal.generators)
    return BoundQuiver(op_quiver, MonomialIdeal(op_gens),
                       cap=max(bq.bounds.values(), default=1))


def linear_quiver(m: int, prefix: str = "a") -> Quiver:
    """The A_m quiver 1 -> 2 -> ... -> m with arrows prefix+i."""
    vertices = [str(i) for i in range(1, m + 1)]
    arrows = [Arrow(f"{prefix}{i}", str(i), str(i + 1)) for i in range(1, m)]
    return Quiver(vertices, arrows)


def cyclic_quiver(n: int, prefix: str = "a") -> Quiver:
    """The cyclic quiver on Z_n; n = 1 gives a single loop."""
    if n < 1:
        raise ValueError("cyclic quiver needs at least one vertex")
    vertices = [str(i) for i in range(n)]
    arrows = [Arrow(f"{prefix}{i}", str(i), str((i + 1) % n)) for i in range(n)]
    return Quiver(vertices, arrows)
