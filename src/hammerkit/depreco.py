"""Dependency recording between conjuncts of named theorems.

Every theorem value carries a tag holding an identifier (set once the
theorem is named) and a dependency tree whose leaves are sets of conjunct
identifiers.  Rule applications combine the premise tags; most rules
flatten, while the conjunction-shuffling rules preserve tree structure so
that, when a theorem is finally named, each of its conjuncts can be
assigned the identifiers sitting at its closest parent in the tree.

A conjunct identifier is a theorem identifier plus an L/R address into
that theorem's conjunct tree; the empty address means the whole theorem.
Addresses deeper than the real conjunct structure arise from virtual
conjunctions (SPEC on a named theorem) and are resolved to the closest
real conjunct during recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence, Union

from .corpus import (
    ConjunctId,
    TheoremId,
    _Hol,
    _parse_name_list,
    _statement,
    deps_lines,
)
from .hol import HolTerm, Signature, split_conjuncts


class UnknownIdentifier(Exception):
    pass


@dataclass(frozen=True)
class DepId:
    """A named theorem or one position inside its conjunct tree."""

    theorem: TheoremId
    path: tuple[str, ...] = ()


@dataclass(frozen=True)
class Leaf:
    ids: frozenset[DepId] = frozenset()


@dataclass(frozen=True)
class Node:
    left: "DepTree"
    right: "DepTree"


DepTree = Union[Leaf, Node]


class Rule(Enum):
    CONJ = "conj"
    CONJUNCT1 = "conjunct1"
    CONJUNCT2 = "conjunct2"
    GEN = "gen"
    SPEC = "spec"
    SUBST = "subst"
    OTHER = "other"


@dataclass(frozen=True)
class Tag:
    dependency_id: DepId | None = None  # None while the theorem is unnamed
    dependencies: DepTree = Leaf()
    oracles: frozenset[str] = frozenset()
    axioms: frozenset[str] = frozenset()

    @property
    def named(self) -> bool:
        return self.dependency_id is not None


def all_ids(tree: DepTree) -> frozenset[DepId]:
    if isinstance(tree, Leaf):
        return tree.ids
    return all_ids(tree.left) | all_ids(tree.right)


def passed_deps(tag: Tag) -> DepTree:
    """What a premise transmits: itself when named, its tree otherwise."""
    if tag.dependency_id is not None:
        return Leaf(frozenset([tag.dependency_id]))
    return tag.dependencies


def _branch(tree: DepTree, rule: Rule) -> DepTree:
    # A Leaf has no branch to take; its structure is unknown, so it is
    # already as flat as it gets.
    if isinstance(tree, Leaf):
        return tree
    return tree.left if rule is Rule.CONJUNCT1 else tree.right


def _distribute(tree: DepTree, extra: frozenset[DepId]) -> DepTree:
    if isinstance(tree, Leaf):
        return Leaf(tree.ids | extra)
    return Node(_distribute(tree.left, extra), _distribute(tree.right, extra))


def step_tag(rule: Rule, premises: Sequence[Tag], payload: bool | None = None) -> Tag:
    """The conclusion tag of one rule application.

    For SUBST, premises[0] is the substituted theorem, the rest are the
    substitution equations, and ``payload`` is True when some template
    variable is a predicate (forcing a flatten).
    """
    oracles = frozenset().union(*(p.oracles for p in premises)) if premises else frozenset()
    axioms = frozenset().union(*(p.axioms for p in premises)) if premises else frozenset()
    if rule in (Rule.GEN, Rule.SPEC):
        if len(premises) != 1:
            raise ValueError(f"{rule.value} takes one premise")
        return premises[0]
    if rule is Rule.CONJ:
        if len(premises) != 2:
            raise ValueError("conj takes two premises")
        tree: DepTree = Node(passed_deps(premises[0]), passed_deps(premises[1]))
        return Tag(None, tree, oracles, axioms)
    if rule in (Rule.CONJUNCT1, Rule.CONJUNCT2):
        if len(premises) != 1:
            raise ValueError(f"{rule.value} takes one premise")
        p = premises[0]
        if p.dependency_id is not None:
            step = "L" if rule is Rule.CONJUNCT1 else "R"
            child = DepId(p.dependency_id.theorem, p.dependency_id.path + (step,))
            return Tag(child, _branch(p.dependencies, rule), oracles, axioms)
        return Tag(None, _branch(p.dependencies, rule), oracles, axioms)
    if rule is Rule.SUBST:
        if not premises:
            raise ValueError("subst takes at least one premise")
        base = passed_deps(premises[0])
        rest = [passed_deps(p) for p in premises[1:]]
        if payload:
            every = all_ids(base).union(*(all_ids(t) for t in rest)) if rest else all_ids(base)
            return Tag(None, Leaf(every), oracles, axioms)
        extra = frozenset().union(*(all_ids(t) for t in rest)) if rest else frozenset()
        return Tag(None, _distribute(base, extra), oracles, axioms)
    ids = (
        frozenset().union(*(all_ids(passed_deps(p)) for p in premises))
        if premises
        else frozenset()
    )
    return Tag(None, Leaf(ids), oracles, axioms)


# ----------------------------------------------------------------- recovery


def split_maximally(
    dep: DepId, conjunct_paths: Sequence[tuple[str, ...]]
) -> frozenset[ConjunctId]:
    """Flat conjunct ids for one identifier against the real conjunct tree.

    An identifier at or above real leaves expands to every leaf below it; an
    identifier below a real leaf (virtual conjunction) resolves to that
    closest parent leaf.
    """
    below = [
        ConjunctId(dep.theorem, i + 1)
        for i, p in enumerate(conjunct_paths)
        if p[: len(dep.path)] == dep.path
    ]
    if below:
        return frozenset(below)
    for i, p in enumerate(conjunct_paths):
        if dep.path[: len(p)] == p:
            return frozenset([ConjunctId(dep.theorem, i + 1)])
    raise UnknownIdentifier(
        f"address {dep.path} does not fit the conjunct tree of {dep.theorem}"
    )


def recover_conjunct_deps(
    conjunct_paths: Sequence[tuple[str, ...]],
    tree: DepTree,
    split_id: Callable[[DepId], frozenset[ConjunctId]],
) -> dict[int, frozenset[ConjunctId]]:
    """Per-conjunct dependencies of a newly named theorem.

    Each conjunct (given by its L/R path) takes the identifier set of its
    closest parent in the dependency tree; tree structure deeper than the
    statement merges into the conjunct above it.  Every identifier is then
    maximally split through ``split_id``.
    """

    def ids_at(tree: DepTree, path: tuple[str, ...]) -> frozenset[DepId]:
        for step in path:
            if isinstance(tree, Leaf):
                return tree.ids
            tree = tree.left if step == "L" else tree.right
        return all_ids(tree)

    out: dict[int, frozenset[ConjunctId]] = {}
    for i, path in enumerate(conjunct_paths):
        ids = ids_at(tree, path)
        split: frozenset[ConjunctId] = frozenset()
        for dep in ids:
            split |= split_id(dep)
        out[i + 1] = split
    return out


# ------------------------------------------------------------------- replay


@dataclass
class ReplayState:
    """Bookkeeping while replaying a proof trace."""

    sig: Signature
    theory: str = "trace"
    named_count: int = 0
    tags: dict[str, Tag] = field(default_factory=dict)
    # per named theorem: its export name and conjunct paths, in flat order
    names: dict[TheoremId, str] = field(default_factory=dict)
    paths: dict[TheoremId, list[tuple[str, ...]]] = field(default_factory=dict)
    recovered: dict[str, tuple[frozenset[ConjunctId], ...]] = field(default_factory=dict)

    def label_of(self, cid: ConjunctId) -> str:
        return f"{self.names[cid.theorem]}_c{cid.index}"


def name_theorem(state: ReplayState, label: str, name: str, statement: HolTerm) -> TheoremId:
    """Name the theorem at ``label``: mint its identifier, store its tree,
    and recover its per-conjunct dependencies."""
    if label not in state.tags:
        raise UnknownIdentifier(f"label {label} is not defined")
    tag = state.tags[label]
    tid = TheoremId(state.theory, state.named_count)
    state.named_count += 1
    tree = passed_deps(tag)
    state.tags[label] = Tag(DepId(tid), tree, tag.oracles, tag.axioms)
    conjuncts = split_conjuncts(statement, state.sig)
    state.names[tid] = name
    state.paths[tid] = [a.path for a, _ in conjuncts]

    def split(dep: DepId) -> frozenset[ConjunctId]:
        if dep.theorem not in state.paths:
            raise UnknownIdentifier(f"dependency on unknown theorem {dep.theorem}")
        return split_maximally(dep, state.paths[dep.theorem])

    recovered = recover_conjunct_deps(state.paths[tid], tree, split)
    state.recovered[name] = tuple(
        recovered[i + 1] for i in range(len(conjuncts))
    )
    return tid


# Trace files: one step per line.
#
#   theory(arith).
#   step(l0, other, [], none).
#   step(l2, conj, [l0, l1], none, Th0, a & b).
#
# The payload is none, pred, or nopred (SUBST's predicate-template flag).
# A step that names its result carries the name and the statement, which is
# needed to align the dependency tree with the conjunct structure.


@dataclass(frozen=True)
class TraceStep:
    label: str
    rule: Rule
    premises: tuple[str, ...]
    payload: bool | None
    name: str | None = None
    statement: HolTerm | None = None


def parse_trace(text: str, sig: Signature) -> list[tuple[str, object]]:
    """A trace as a list of ("theory", name) and ("step", TraceStep) items."""
    p = _Hol(text, sig)
    out: list[tuple[str, object]] = []
    for head in p.entries("theory", "step"):
        if head == "theory":
            out.append(("theory", p.name()))
            continue
        label = p.name()
        p.expect(",")
        tok = p.peek()
        rule_name = p.name()
        try:
            rule = Rule(rule_name)
        except ValueError:
            raise p.fail(f"unknown rule {rule_name!r}", tok) from None
        p.expect(",")
        premises = _parse_name_list(p)
        p.expect(",")
        tok = p.peek()
        flag = p.name()
        if flag == "none":
            payload = None
        elif flag == "pred":
            payload = True
        elif flag == "nopred":
            payload = False
        else:
            raise p.fail(f"unknown payload {flag!r}", tok)
        name = None
        statement = None
        if p.at_op(","):
            p.take()
            name = p.name()
            p.expect(",")
            statement = _statement(p, f"statement of {name}")
        out.append(("step", TraceStep(label, rule, tuple(premises), payload, name, statement)))
    return out


def replay(text: str, sig: Signature) -> dict[str, tuple[frozenset[str], ...]]:
    """Run a trace; per named theorem, the recovered dependency labels of
    each conjunct (a .deps sidecar equivalent)."""
    state = ReplayState(sig)
    for kind, item in parse_trace(text, sig):
        if kind == "theory":
            state.theory = item
            continue
        step = item
        try:
            premises = [state.tags[l] for l in step.premises]
        except KeyError as e:
            raise UnknownIdentifier(f"label {e.args[0]} is not defined") from None
        state.tags[step.label] = step_tag(step.rule, premises, step.payload)
        if step.name is not None:
            name_theorem(state, step.label, step.name, step.statement)
    return {
        name: tuple(
            frozenset(state.label_of(c) for c in deps) for deps in per_conj
        )
        for name, per_conj in state.recovered.items()
    }


def deps_text(recovered: dict[str, tuple[frozenset[str], ...]]) -> str:
    """Recovered dependencies rendered in the .deps sidecar format."""
    return deps_lines(
        (f"{name}_c{k}", sorted(deps))
        for name, per_conj in recovered.items()
        for k, deps in enumerate(per_conj, start=1)
    )
