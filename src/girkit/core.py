"""Shared domain types for the middle-end: names, qualifiers, read/write
effects, qualified types, typing contexts, dependency maps, term and graph
ASTs with the one table of their operators, and stores.

Names, qualifiers, effects, types, typing contexts, dependency maps and the
term and graph ASTs are immutable values after construction; typing
contexts share their name map until a binder extends it. Stores and their
cells are the mutable exception: allocation and the evaluators update them
in place. The algebra on qualifiers and dependency maps lives next to the
types it operates on.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from inspect import signature
from operator import attrgetter
from collections.abc import Mapping, Set as AbstractSet
from types import GeneratorType
from typing import Callable, Optional, Union


# ---------------------------------------------------------------------------
# Immutable records
# ---------------------------------------------------------------------------

def record(cls):
    """Declare an immutable record: a frozen, slotted dataclass whose
    `__init__` stores each field through its slot descriptor.

    Every typing rule builds records. A frozen dataclass's own `__init__`
    calls `object.__setattr__` once per field: building a 2-field record
    took 0.64 µs that way and 0.36 µs through the descriptors (Python
    3.10, timeit).
    `dataclass` still makes `__repr__`, the frozen `__setattr__` and
    `__delattr__`, so writing a field raises `FrozenInstanceError`, and
    `__eq__` and `__hash__` unless the class body defines its own
    `__eq__`, which comes with its own `__hash__`. The `__init__` takes
    the parameters and defaults dataclass's would, and compiles once per
    class, as dataclass's does. No field takes a default factory."""
    # dataclass documents an undocumented class by its `__init__`'s
    # signature; that is written here, once this `__init__` exists
    undocumented = not cls.__doc__
    if undocumented:
        cls.__doc__ = cls.__name__
    cls = dataclass(cls, frozen=True, slots=True, init=False,
                    eq="__eq__" not in vars(cls))
    env = {}
    params, body = [], []
    for i, f in enumerate(fields(cls)):
        env[f"_set{i}"] = getattr(cls, f.name).__set__
        default = ""
        if f.default is not MISSING:
            env[f"_default{i}"] = f.default
            default = f"=_default{i}"
        params.append(f.name + default)
        body.append(f" _set{i}(self, {f.name})\n")
    exec(f"def __init__(self, {', '.join(params)}):\n{''.join(body)}", env)
    init = cls.__init__ = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {f.name: f.type for f in fields(cls)}
    init.__annotations__["return"] = None
    if undocumented:
        sig = str(signature(cls)).replace(" -> None", "")
        cls.__doc__ = cls.__name__ + sig
    return cls


# ---------------------------------------------------------------------------
# Nested walks
# ---------------------------------------------------------------------------

def descend(walk):
    """Run a nested walk to its result on an explicit stack instead of
    Python's: the defunctionalized continuations of Danvy and Nielsen,
    "Defunctionalization at Work" (PPDP 2001), with a generator standing
    for each rule's continuation. A rule writes `r = yield sub` where a
    recursive one would call the walker: `sub` is a generator, which
    runs here to its result, or a value, which is sent straight back (a
    walker may hand back an atom's result without a generator). An
    exception a sub-walk raises is thrown into its parent at that
    `yield`, as recursion would propagate it. So a walk takes the same
    few Python frames at any nesting depth. `walk` itself may be a
    value, which is its own result."""
    if type(walk) is not GeneratorType:
        return walk
    stack, value, error = [], None, None
    while True:
        try:
            if error is None:
                sub = walk.send(value)
            else:
                sub, error = walk.throw(error), None
        except StopIteration as stop:
            value, error = stop.value, None
        except Exception as e:
            error = e
        else:
            if type(sub) is GeneratorType:
                stack.append(walk)
                walk, value = sub, None
            else:
                value = sub
            continue
        if not stack:
            if error is not None:
                raise error
            return value
        walk = stack.pop()


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class GirError(Exception):
    """Base class for every user-facing error in the kit."""

    code = "E000"

    def __init__(self, message: str, span: "Span | None" = None, **payload):
        super().__init__(message)
        self.message = message
        self.span = span
        self.payload = payload


class UnboundName(GirError):
    code = "E001"


class TypeMismatch(GirError):
    code = "E002"


class QualifierEscape(GirError):
    code = "E003"


class OverlapViolation(GirError):
    code = "E004"


class EffectEscape(GirError):
    code = "E005"


class DepMismatch(GirError):
    code = "E006"


class DependencyViolation(GirError):
    code = "E007"


class Stuck(GirError):
    code = "E008"


class FuelExhausted(GirError):
    code = "E009"


class SideConditionFailed(GirError):
    code = "E010"


class CyclicDependency(GirError):
    code = "E011"


class GenerationExhausted(GirError):
    code = "E012"


class ParseError(GirError):
    code = "E013"


class JsonSchemaError(GirError):
    code = "E014"


@record
class Span:
    start: int
    end: int


# ---------------------------------------------------------------------------
# Names
# ---------------------------------------------------------------------------

VAR = 0
LOC = 1


class Name(int):
    """An interned name: a program variable (VAR) or store location (LOC).

    A name is an `int` whose value is 2·(id + 1) + kind, so hashing,
    equality and ordering run in C in every set, dict and sort that holds
    names: a qualifier is a set of names and a last-use map keys on them,
    so every typing rule pays for these operations. Equality and ordering
    are by (id, kind); the display text is cosmetic. Canonical order is
    interning order, which makes every iteration in the kit
    deterministic. The offset keeps every name truthy, id 0 included (ids
    are never negative).

    `text` lives in the name's attribute dict (an `int` subtype cannot
    have `__slots__`). The names one `NameSupply` mints with one text
    share a dict, and so do the copies `fresh_like` makes, so such a name
    costs little more than its int; a name whose text no other name
    shares pays for a dict of its own, as does every `Name(kind, id,
    text)`. Setting or deleting an attribute raises, so no name writes a
    shared dict (writing through `vars(n)` would rename every name that
    shares it). `repr`, `str` and f-strings print `text#v<id>` or
    `text#l<id>`.
    """

    def __new__(cls, kind: int, id: int, text: str):
        self = _new_int(Name, 2 * id + 2 + kind)
        _set_attrs(self, {"text": text})
        return self

    def __setattr__(self, attr, value):
        raise AttributeError(f"a name is immutable: cannot set {attr!r}")

    def __delattr__(self, attr):
        raise AttributeError(f"a name is immutable: cannot delete {attr!r}")

    def __reduce__(self):
        return Name, (self.kind, self.id, self.text)

    @property
    def kind(self) -> int:
        return self & 1

    @property
    def id(self) -> int:
        return (self >> 1) - 1

    @property
    def is_loc(self) -> bool:
        return self & 1 == LOC

    def __repr__(self):
        return f"{self.text}#{'l' if self.is_loc else 'v'}{self.id}"

    def pretty(self) -> str:
        """Parseable display form (unique per name)."""
        text = self.text
        if self & 1:
            if text == "w":
                return "w"
            return f"{text or 'l'}_{(self >> 1) - 1}"
        return f"{text or 'x'}_{(self >> 1) - 1}"


# a name is built as an `int`, then given its attribute dict through the
# type's `__dict__` descriptor, past `Name.__setattr__`, which refuses
_new_int = int.__new__
_set_attrs = Name.__dict__["__dict__"].__set__


class NameSupply:
    """Monotone fresh-name source; ids are unique across vars and locs.

    The names it mints with one text share one attribute dict (see
    `Name`), kept in `_attrs` for as long as the supply lives. `var`,
    `loc` and `fresh_like` each build their name in place, in one call:
    the front end mints a name per binder."""

    def __init__(self, start: int = 0):
        self._next = start
        self._attrs: dict = {}  # text -> the attribute dict its names share

    def var(self, text: str = "x") -> Name:
        attrs = self._attrs.get(text)
        if attrs is None:
            attrs = self._attrs[text] = {"text": text}
        id = self._next
        self._next = id + 1
        n = _new_int(Name, 2 * id + 2 + VAR)
        _set_attrs(n, attrs)
        return n

    def loc(self, text: str = "l") -> Name:
        attrs = self._attrs.get(text)
        if attrs is None:
            attrs = self._attrs[text] = {"text": text}
        id = self._next
        self._next = id + 1
        n = _new_int(Name, 2 * id + 2 + LOC)
        _set_attrs(n, attrs)
        return n

    def fresh_like(self, n: Name) -> Name:
        id = self._next
        self._next = id + 1
        m = _new_int(Name, 2 * id + 2 + (n & 1))
        _set_attrs(m, n.__dict__)
        return m

    @property
    def next_id(self) -> int:
        return self._next

    def reserve(self, upto: int) -> None:
        """Make sure future ids are all >= upto, so that a fresh store mints
        no name that a given term already uses."""
        if upto > self._next:
            self._next = upto


# ---------------------------------------------------------------------------
# Qualifiers
# ---------------------------------------------------------------------------

# A qualifier is a finite set of names; every rule on qualifiers is set
# algebra, so they are plain frozensets.
Qualifier = frozenset

EMPTY_QUAL: Qualifier = frozenset()


def qual_repr(q: Qualifier) -> str:
    """A qualifier's debug form, members in canonical name order."""
    return "{" + ",".join(map(repr, sorted(q))) + "}"


def subst_qual(q: Qualifier, x: Name, p: Qualifier) -> Qualifier:
    """q[p/x]: replace x by the whole set p when x is a member."""
    if x in q:
        return (q - {x}) | p
    return q


# ---------------------------------------------------------------------------
# Read/write effects
# ---------------------------------------------------------------------------

@record
class RwEffect:
    """An effect split into read and write footprints.

    The single-set effect of the base system is recovered as the flat view
    reads ∪ writes; sequencing is componentwise union (flow-insensitive).
    """

    reads: Qualifier = EMPTY_QUAL
    writes: Qualifier = EMPTY_QUAL

    @staticmethod
    def read(q: Qualifier) -> "RwEffect":
        return RwEffect(reads=q)

    @staticmethod
    def write(q: Qualifier) -> "RwEffect":
        return RwEffect(writes=q)

    @property
    def flat(self) -> Qualifier:
        return self.reads | self.writes

    @property
    def is_pure(self) -> bool:
        return not self.reads and not self.writes

    def seq(self, other: "RwEffect") -> "RwEffect":
        """Sequential composition e1 ▷ e2 (componentwise union). An
        operand that holds the other is the result itself, so the typing
        rules build no effect equal to one they already have."""
        r1, w1, r2, w2 = self.reads, self.writes, other.reads, other.writes
        if r1 <= r2 and w1 <= w2:
            return other
        if r2 <= r1 and w2 <= w1:
            return self
        return RwEffect(r1 | r2, w1 | w2)

    def subst(self, x: Name, p: Qualifier) -> "RwEffect":
        """[p/x] on both footprints; `self` when x occurs in neither."""
        if x not in self.reads and x not in self.writes:
            return self
        return RwEffect(subst_qual(self.reads, x, p), subst_qual(self.writes, x, p))

    def included_in(self, other: "RwEffect") -> bool:
        return self.reads <= other.reads and self.writes <= other.writes

    def __repr__(self):
        return f"(r:{qual_repr(self.reads)};w:{qual_repr(self.writes)})"


PURE = RwEffect()


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@record
class BaseTy:
    name: str  # a key of BASE_TYPES

    def __repr__(self):
        return self.name


@record
class RefTy:
    payload: BaseTy  # references hold base values only

    def __repr__(self):
        return f"Ref[{self.payload!r}]"


class _Memo:
    """A slot past a record's fields that keeps a value computed from
    them once it is first read: the record stays immutable, and neither
    its fields, its comparison nor its pickled state include the slot."""

    __slots__ = ("_memo",)


@record
class FunTy(_Memo):
    """A function type; its memo holds `ty_free_names` of it, so the
    names of a type nested as deep as the lambdas it types are found once,
    not once per enclosing let."""

    param: Name
    param_qt: "QualifiedType"
    latent: RwEffect
    result_qt: "QualifiedType"

    def __repr__(self):
        return (f"(({self.param!r}: {self.param_qt!r}) =>"
                f"{self.latent!r} {self.result_qt!r})")


Ty = Union[BaseTy, RefTy, FunTy]

TY_UNIT = BaseTy("Unit")
TY_BOOL = BaseTy("Bool")
TY_INT = BaseTy("Int")
TY_ALLOC = BaseTy("Alloc")
# the base types by the names the surface syntax and JSON give them
BASE_TYPES = {t.name: t for t in (TY_UNIT, TY_BOOL, TY_INT, TY_ALLOC)}


@record
class QualifiedType:
    ty: Ty
    qual: Qualifier = EMPTY_QUAL

    def __repr__(self):
        return f"{self.ty!r}^{qual_repr(self.qual)}"


def subst_qual_ty(ty: Ty, x: Name, p: Qualifier) -> Ty:
    if isinstance(ty, (BaseTy, RefTy)):
        return ty
    if isinstance(ty, FunTy):
        if ty.param == x:  # shadowed (Barendregt makes this unreachable)
            return ty
        return FunTy(ty.param,
                     subst_qual_qt(ty.param_qt, x, p),
                     ty.latent.subst(x, p),
                     subst_qual_qt(ty.result_qt, x, p))
    raise TypeError(ty)


def subst_qual_qt(qt: QualifiedType, x: Name, p: Qualifier) -> QualifiedType:
    return QualifiedType(subst_qual_ty(qt.ty, x, p), subst_qual(qt.qual, x, p))


def ty_free_names(ty: Ty) -> frozenset:
    """Names occurring in qualifier positions inside a type (minus binders)."""
    return descend(_ty_free(ty))


def _ty_free(ty):
    if isinstance(ty, (BaseTy, RefTy)):
        return EMPTY_QUAL
    if not isinstance(ty, FunTy):
        raise TypeError(ty)
    free = getattr(ty, "_memo", None)
    return _fun_free(ty) if free is None else free


def _fun_free(ty: FunTy):
    inner = ((yield _ty_free(ty.param_qt.ty)) | ty.param_qt.qual
             | ty.latent.flat | (yield _ty_free(ty.result_qt.ty))
             | ty.result_qt.qual)
    free = inner - {ty.param}
    _Memo._memo.__set__(ty, free)
    return free


def qt_free_names(qt: QualifiedType) -> frozenset:
    return ty_free_names(qt.ty) | qt.qual


# ---------------------------------------------------------------------------
# Persistent maps
# ---------------------------------------------------------------------------

_ABSENT = object()  # a diff's value for a key the version does not hold


class PMap(Mapping):
    """A persistent map: `set` and `update` return a new version at a cost
    of O(1) time and memory per changed key; the old version stays valid
    and shares everything else. All versions made from one map share one
    dict, which holds the contents of the version last read; every other
    version holds the change that leads from it one step toward that one
    (Baker, "Shallow Binding Makes Functional Arrays Fast", 1991). Reading
    a version moves the dict to it first, one step per change on the way,
    so a traversal that reads versions in about the order it makes them
    pays O(1) a step. Iteration follows insertion order, as a dict's does;
    equality is content equality, and versions of unequal size compare
    unequal in O(1)."""

    __slots__ = ("_data", "_diff", "_next", "_len")

    def __init__(self, items=()):
        self._data = dict(items)
        self._diff = self._next = None
        self._len = len(self._data)

    def _root(self) -> dict:
        """Move the shared dict to this version and return it. Each step
        applies a version's diff (a flat key, value, key, value tuple)
        backwards and leaves the inverse, in the order applied, on the
        version it came from, so that insertion order survives moves."""
        d = self._data
        if d is not None:
            return d
        path, v = [self], self._next
        while v._data is None:
            path.append(v)
            v = v._next
        d = v._data
        for u in reversed(path):
            diff = u._diff
            if len(diff) == 2:  # one key: _apply inlined, on the hot path
                k, x = diff
                if x is _ABSENT:
                    undo = (k, d.pop(k))
                else:
                    undo = (k, d.get(k, _ABSENT))
                    d[k] = x
            else:
                undo = PMap._apply(d, zip(diff[-2::-2], diff[-1::-2]))
            v._data, v._diff, v._next = None, undo, u
            u._data, u._diff, u._next = d, None, None
            v = u
        return d

    @staticmethod
    def _apply(d: dict, changes) -> tuple:
        """Set `d[k]` to `x` for each (k, x) of `changes` in order (delete
        it for `_ABSENT`), hashing `k` once in the common cases; returns
        the flat (key, value, …) diff that undoes what changed, to be
        applied from its end."""
        undo = []
        for k, x in changes:
            if x is _ABSENT:
                old = d.pop(k, _ABSENT)
                if old is _ABSENT:
                    continue
            else:
                n = len(d)
                old = d.setdefault(k, x)
                if len(d) != n:
                    old = _ABSENT
                elif old is x:
                    continue
                else:
                    d[k] = x
            undo += (k, old)
        return tuple(undo)

    def _child(self, d: dict, undo: tuple, n: int) -> "PMap":
        child = PMap.__new__(PMap)
        child._data, child._diff, child._next, child._len = d, None, None, n
        self._data, self._diff, self._next = None, undo, child
        return child

    def update(self, changes) -> "PMap":
        """The version with each (key, value) of `changes` set, in order;
        a value of `_ABSENT` deletes its key."""
        d = self._data
        if d is None:
            d = self._root()
        undo = PMap._apply(d, changes)
        return self._child(d, undo, len(d)) if undo else self

    def set(self, k, x) -> "PMap":
        """The version with `k` set to `x`."""
        d = self._data
        if d is None:
            d = self._root()
        n = len(d)
        old = d.setdefault(k, x)
        if len(d) != n:
            return self._child(d, (k, _ABSENT), n + 1)
        if old is x:
            return self
        d[k] = x
        return self._child(d, (k, old), n)

    def __getitem__(self, k):
        d = self._data
        return (self._root() if d is None else d)[k]

    def __contains__(self, k) -> bool:
        d = self._data
        return k in (self._root() if d is None else d)

    def __len__(self) -> int:
        return self._len

    # reading another version moves the dict, so iteration takes a copy
    def __iter__(self):
        return iter(list(self._root()))

    def values(self) -> list:
        return list(self._root().values())

    def items(self) -> list:
        return list(self._root().items())

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if isinstance(other, PMap):
            if self._len != other._len:
                return False
            return dict(self._root()) == other._root()
        if isinstance(other, Mapping):
            return self._root() == dict(other.items())
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return repr(self._root())


# ---------------------------------------------------------------------------
# Typing contexts
# ---------------------------------------------------------------------------

class Observation(AbstractSet):
    """An observation filter φ, or its saturation φ*, that a let extends in
    O(1): a base set plus the let binders bound after it. `lets` maps each
    let binder of the context to its position among them; those at
    `mark` or later were bound after the base was set."""

    __slots__ = ("base", "lets", "mark", "_len")

    def __init__(self, base: Qualifier, lets: PMap, mark: int,
                 size: Optional[int] = None):
        self.base, self.lets, self.mark = base, lets, mark
        self._len = len(base) if size is None else size

    def __contains__(self, n) -> bool:
        if n in self.base:
            return True
        shared = self.lets._data
        if shared is None:
            shared = self.lets._root()
        return shared.get(n, -1) >= self.mark

    def __iter__(self):
        yield from self.base
        if self._len == len(self.base):  # nothing bound after the base
            return
        mark, base = self.mark, self.base
        for n, pos in self.lets.items():
            if pos >= mark and n not in base:
                yield n

    def __len__(self) -> int:
        return self._len

    # `q <= phi`, `q & phi` and `q - phi` land here: they cost O(|q|)
    def __ge__(self, other) -> bool:
        return not other or all(map(self.__contains__, other))

    def __rand__(self, other) -> Qualifier:
        return frozenset(filter(self.__contains__, other))

    __and__ = __rand__

    def __rsub__(self, other) -> Qualifier:
        return frozenset(n for n in other if n not in self)

    def __or__(self, other) -> Qualifier:
        return frozenset(self).union(other)

    __ror__ = __or__

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, AbstractSet):
            return NotImplemented
        return len(self) == len(other) and self >= other

    __hash__ = None

    def extend(self, n: Name, lets: PMap) -> "Observation":
        """The observation with the fresh let binder `n` added; `lets`
        records it."""
        return Observation(self.base, lets, self.mark,
                           self._len + (n not in self.base))


class TypingContext:
    """Immutable triple (env, phi, φ*): one map from every bound name,
    variable or location, to its qualified type, plus the current
    observation filter. Each part is persistent: extending a context by
    one binder costs O(1) and shares everything else with its parent, so
    a spine of n lets holds O(n) context memory, not O(n²).

    `env` is a `PMap`, and `bind` is its only extension. φ and φ* are
    `Observation`s: a let adds its binder to both without copying them.
    `lets` maps each let binder to its position among them; a let
    binder's qualifier was saturated when it was bound, so `saturate`
    takes it whole instead of walking it. Binding a name again breaks
    that promise for the qualifiers that mention it, so a rebound name
    starts a fresh `lets` and a φ materialized from the old one, and φ*
    is then recomputed on demand. φ* is computed the first time
    `phi_star` is read unless the context was made from one that had it.
    Equality is content equality of `env` and φ."""

    __slots__ = ("env", "lets", "phi", "_phi_star")

    def __init__(self, env=None, phi: Qualifier = EMPTY_QUAL):
        self.env = PMap(env or ())
        self.lets = PMap()
        self.phi = Observation(frozenset(phi), self.lets, 0)
        self._phi_star = None

    @staticmethod
    def _make(env: PMap, lets: PMap, phi: Observation,
              phi_star: Optional[Observation]) -> "TypingContext":
        ctx = TypingContext.__new__(TypingContext)
        ctx.env, ctx.lets, ctx.phi, ctx._phi_star = env, lets, phi, phi_star
        return ctx

    @property
    def phi_star(self) -> Observation:
        """saturate(phi); phi itself when phi is closed."""
        if self._phi_star is None:
            phi = self.phi
            star = saturate(phi, self)
            self._phi_star = (phi if len(star) == len(phi)
                              else Observation(star, phi.lets, phi.mark))
        return self._phi_star

    def lookup(self, n: Name) -> QualifiedType:
        shared = self.env._data
        qt = (self.env._root() if shared is None else shared).get(n)
        if qt is None:
            raise UnboundName(f"unbound name {n!r}", name=n)
        return qt

    def __contains__(self, n: Name) -> bool:
        return n in self.env

    def bind(self, n: Name, qt: QualifiedType,
             let: bool = False) -> "TypingContext":
        """The context with `n` bound to `qt`. With `let`, `n` is a let
        binder: `qt`'s qualifier must be saturated, and `n` joins φ and
        φ*."""
        env = self.env.set(n, qt)
        if env._len == self.env._len:  # rebound: exact recomputation
            lets = PMap()
            phi = frozenset(self.phi) | {n} if let else frozenset(self.phi)
            return TypingContext._make(env, lets, Observation(phi, lets, 0),
                                       None)
        if not let:
            return TypingContext._make(env, self.lets, self.phi, None)
        lets = self.lets.set(n, self.lets._len)
        phi, star = self.phi, self._phi_star
        phi2 = phi.extend(n, lets)
        if star is phi:  # phi closed: so is phi + n
            star = phi2
        elif star is not None:
            star = star.extend(n, lets)
        return TypingContext._make(env, lets, phi2, star)

    def with_phi(self, phi: Qualifier) -> "TypingContext":
        obs = Observation(frozenset(phi), self.lets, self.lets._len)
        return TypingContext._make(self.env, self.lets, obs, None)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TypingContext):
            return NotImplemented
        return (self is other
                or (len(self.env) == len(other.env)
                    and self.phi == other.phi and self.env == other.env))

    __hash__ = None

    def __repr__(self):
        return f"Ctx(env={self.env!r}, phi={qual_repr(self.phi)})"


def saturate(q: Qualifier, ctx: TypingContext) -> Qualifier:
    """Transitive reachability closure q* through context-declared
    qualifiers: least superset of q closed under member lookup. A let
    binder's qualifier was saturated when it was bound, so it joins whole
    instead of being walked."""
    if not q:
        return EMPTY_QUAL
    shared, lets = _contents(ctx.env), _contents(ctx.lets)
    seen = set(q)
    frontier = list(q)
    while frontier:
        x = frontier.pop()
        qt = shared.get(x)
        if qt is None:
            raise UnboundName(f"unbound name {x!r}", name=x)
        qual = qt.qual
        if not qual:
            continue
        if x in lets:
            seen.update(qual)
            continue
        for y in qual:
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def overlap(p: Qualifier, q: Qualifier, ctx: TypingContext) -> Qualifier:
    """Permitted overlap p* ∩ q*."""
    return saturate(p, ctx) & saturate(q, ctx)


# ---------------------------------------------------------------------------
# Dependency maps
# ---------------------------------------------------------------------------

HARD = "hard"  # every effect yields a hard (must-run-after) dependency
RW = "rw"      # reads give hard deps, writes soft (skippable) deps


@record
class DepMap:
    """Hard (name -> name) and soft (name -> name set) dependency entries.

    Normal form: soft entries are dropped when empty — this makes
    structural equality the right notion for roundtrip tests.  A key's
    soft set may repeat that key's hard target: discarding such entries
    would make sequential update non-associative (the redundancy becomes
    load-bearing once a later update overrides the hard target).

    An annotation is plain: `hard` and `soft` are dicts and `default` is
    None. The last-use map Δ that synthesis threads is persistent: its
    components are `PMap`s, so `dep_last_use` costs the binding's
    footprint alone, and `default`, when set, is the hard target of every
    name without a hard entry (the start variable at top level, the
    parameter in a lambda body). Equality is content equality; versions
    of Δ that differ in size compare unequal in O(1)."""

    hard: Mapping
    soft: Mapping
    default: Optional[Name] = None

    @staticmethod
    def make(hard=None, soft=None) -> "DepMap":
        h = dict(hard or {})
        s = {}
        for k, targets in (soft or {}).items():
            t = frozenset(targets)
            if t:
                s[k] = t
        return DepMap(h, s) if h or s else EMPTY_DEP

    def domain(self) -> frozenset:
        return frozenset(self.hard) | frozenset(self.soft)

    def targets(self) -> frozenset:
        out = set(self.hard.values())
        for t in self.soft.values():
            out |= t
        return frozenset(out)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, DepMap):
            return NotImplemented
        return (self.default == other.default and self.hard == other.hard
                and self.soft == other.soft)

    __hash__ = None

    def __repr__(self):
        h = ", ".join(f"{k!r}->{v!r}" for k, v in sorted(self.hard.items()))
        s = ", ".join(f"{k!r}->{sorted(v)!r}" for k, v in sorted(self.soft.items()))
        if self.default is not None:
            s += f" |*->{self.default!r}"
        return f"Dep[{h}|{s}]"


EMPTY_DEP = DepMap({}, {})


def _annotation(hard: dict, soft: dict, *inputs: DepMap) -> DepMap:
    """The annotation of the entries `hard` and `soft` (soft sets not
    empty): the first of `inputs` that equals it, if any, so that an
    operation builds no map equal to one it was handed."""
    for d in inputs:
        if d.hard == hard and d.soft == soft and d.default is None:
            return d
    return DepMap(hard, soft) if hard or soft else EMPTY_DEP


def dep_update(d1: DepMap, d2: DepMap) -> DepMap:
    """d1 , d2 — right-biased on hard entries, per-key union on soft, of
    two annotations. An operand equal to the result is the result."""
    if not (d2.hard or d2.soft):
        return d1
    if not (d1.hard or d1.soft):
        return d2
    hard = dict(d1.hard)
    hard.update(d2.hard)
    soft = dict(d1.soft)
    for k, t in d2.soft.items():
        soft[k] = soft.get(k, EMPTY_QUAL) | t
    return _annotation(hard, soft, d2, d1)


def footprint(e: RwEffect, ctx: TypingContext, regime: str):
    """An effect's saturated footprint, as `regime` tells its names apart:
    the flat footprint (HARD), or the pair (reads, writes) (RW). A
    binding's footprint is saturated once and serves both its
    annotation (`dep_restrict`) and its Δ update (`dep_last_use`)."""
    if regime == HARD:
        return saturate(e.flat, ctx)
    return saturate(e.reads, ctx), saturate(e.writes, ctx)


def dep_restrict(d: DepMap, foot, regime: str) -> DepMap:
    """Restrict to an effect's saturated footprint (see `footprint`).

    RW: reads pull hard entries; writes route hard entries (as singleton
    soft sets) merged with soft entries. HARD: the flat footprint pulls
    hard entries only.
    """
    get, default = _contents(d.hard).get, d.default
    if regime == HARD:
        hard = {}
        for k in foot:
            t = get(k, default)
            if t is not None:
                hard[k] = t
        return DepMap(hard, {}) if hard else EMPTY_DEP
    reads, writes = foot
    hard = {}
    for k in reads:
        t = get(k, default)
        if t is not None:
            hard[k] = t
    soft, soft_of = {}, _contents(d.soft).get
    for k in writes:
        t = soft_of(k, EMPTY_QUAL)
        h = get(k, default)
        if h is not None:
            t = t | {h}
        if t:
            soft[k] = t
    return DepMap(hard, soft) if hard or soft else EMPTY_DEP


def dep_restrict_names(d: DepMap, names: Qualifier) -> DepMap:
    """Domain restriction Δ|α by a plain name set, both components."""
    get, default = _contents(d.hard).get, d.default
    hard = {}
    for k in names:
        t = get(k, default)
        if t is not None:
            hard[k] = t
    soft_of, soft = _contents(d.soft).get, {}
    for k in names:
        t = soft_of(k)
        if t:
            soft[k] = t
    return DepMap(hard, soft) if hard or soft else EMPTY_DEP


def dep_has_target(d: DepMap, x: Name) -> bool:
    """Whether an entry of `d` targets `x`."""
    return x in d.hard.values() or any(x in t for t in d.soft.values())


def dep_rewire(d1: DepMap, x: Name, d2: DepMap) -> DepMap:
    """d1[x ⇝ d2]: reroute entries of the annotation d1 targeting x
    through d2 (entries with no route in d2 are dropped). An operand
    equal to the result is the result: d1 when no entry targets x."""
    if not dep_has_target(d1, x):
        return d1
    hard = {}
    for k, v in d1.hard.items():
        if v == x:
            if k in d2.hard:
                hard[k] = d2.hard[k]
        else:
            hard[k] = v
    soft = {}
    for k, t in d1.soft.items():
        if x in t:
            t = (t - {x}) | d2.soft.get(k, EMPTY_QUAL)
        if t:
            soft[k] = t
    return _annotation(hard, soft, d1, d2)


def dep_dom_subst(d: DepMap, q: Qualifier, x: Name) -> DepMap:
    """Δ[q/x] on the domain: x's entry is removed and fanned out to every
    member of q (pointing at x's former target/set)."""
    hard = {k: v for k, v in d.hard.items() if k != x}
    soft = {k: v for k, v in d.soft.items() if k != x}
    if x in d.hard:
        for y in q:
            hard[y] = d.hard[x]
    if x in d.soft:
        for y in q:
            soft[y] = soft.get(y, frozenset()) | d.soft[x]
    return DepMap.make(hard, soft)


def _contents(m: Mapping) -> Mapping:
    """A dict with `m`'s contents, to read until the next version is made
    or read."""
    if type(m) is not PMap:
        return m
    shared = m._data
    return m._root() if shared is None else shared


def dep_last_use(d: DepMap, x: Name, foot, regime: str) -> DepMap:
    """Record x as the latest node touching an effect's saturated
    footprint (see `footprint`): the Δ update a let performs before
    checking its continuation. The result is a new version of `d`'s
    persistent components that changes only the footprint's entries and
    x's own.

    HARD: every used name's hard target becomes x. RW: written names point
    hard at x with soft reset; read names append x to their soft set.
    """
    hard, soft = d.hard, d.soft
    if type(hard) is not PMap:  # an annotation: Δ starts from a copy
        hard, soft = PMap(hard), PMap(soft)
    if regime == HARD:
        if not foot:
            return DepMap(hard.set(x, x), soft, d.default)
        changes = [(k, x) for k in foot]
        changes.append((x, x))
        return DepMap(hard.update(changes), soft, d.default)
    reads, writes = foot
    old = _contents(soft)
    if not (reads or writes):
        if x in old:
            soft = soft.update(((x, _ABSENT),))
        return DepMap(hard.set(x, x), soft, d.default)
    hard_changes = [(k, x) for k in writes]
    hard_changes.append((x, x))
    soft_changes = {k: _ABSENT for k in (*writes, x) if k in old}
    for k in reads:
        reset = k in writes or k == x
        soft_changes[k] = (EMPTY_QUAL if reset
                           else old.get(k, EMPTY_QUAL)) | {x}
    return DepMap(hard.update(hard_changes),
                  soft.update(soft_changes.items()), d.default)


def points_to(z: Name) -> DepMap:
    """↦z: every name hard-depends on z, as the last-use map Δ in which
    nothing has run yet."""
    return DepMap(PMap(), PMap(), z)


def dep_submap(d1: DepMap, d2: DepMap) -> bool:
    """d1 ⊑ d2 modulo normal form: every hard entry of d1 appears in d2;
    every soft target of d1 appears among d2's targets for that key."""
    if d1 is d2:
        return True
    hard, soft = d2.hard, d2.soft
    for k, v in d1.hard.items():
        if hard.get(k) != v:
            return False
    for k, t in d1.soft.items():  # a key's targets: its soft set, its hard
        targets = soft.get(k, EMPTY_QUAL)
        if not (t <= targets or t <= targets | {hard.get(k)}):
            return False
    return True


def dep_add_hard(d: DepMap, key: Name, target: Name) -> DepMap:
    hard = dict(d.hard)
    hard[key] = target
    return DepMap.make(hard, d.soft)


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------

class _Atom:
    """A constant that is its own only instance: unit and the allocation
    capability ω. It pickles and copies by its module-level name, so it
    stays itself."""

    __slots__ = ("name", "base", "text")

    def __init__(self, name: str, base: str, text: str):
        self.name, self.base, self.text = name, base, text

    def __repr__(self):
        return self.text

    def __reduce__(self):
        return self.name


UNIT_V = _Atom("UNIT_V", "Unit", "unit")
OMEGA = _Atom("OMEGA", "Alloc", "omega")


def const_key(value) -> tuple:
    """A constant as its base type's name and, for Bool and Int, its
    value: ("Unit",), ("Alloc",), ("Bool", b) or ("Int", n). bool is an
    int subtype, so plain value equality has 1 == true; keys tell them
    apart, and a `Name` (an int subtype too) is no constant."""
    if type(value) is _Atom:
        return (value.base,)
    if isinstance(value, bool):
        return ("Bool", value)
    if type(value) is int:
        return ("Int", value)
    raise TypeError(f"not a constant: {value!r}")


def const_base(value) -> BaseTy:
    return BASE_TYPES[const_key(value)[0]]


def _const_eq(self, other) -> bool:
    """`Cst` and `NCst` compare and hash by `const_key`."""
    return (type(other) is type(self)
            and const_key(self.value) == const_key(other.value))


def _const_hash(self) -> int:
    return hash(const_key(self.value))


def const_text(value) -> str:
    if type(value) is _Atom:
        return value.text
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# ---------------------------------------------------------------------------
# Direct-style terms
# ---------------------------------------------------------------------------

@record
class Cst:
    value: object
    span: Optional[Span] = field(default=None, compare=False)

    __eq__, __hash__ = _const_eq, _const_hash


@record
class Nm:
    name: Name
    span: Optional[Span] = field(default=None, compare=False)


@record
class Lam(_Memo):
    """A lambda; its memo holds `term_free_names` of it, so a walk finds
    the names of a lambda inside one it walked without walking it again."""

    param: Name
    param_qt: QualifiedType
    latent: RwEffect
    body: "Term"
    span: Optional[Span] = field(default=None, compare=False)


@record
class App:
    fn: "Term"
    arg: "Term"
    span: Optional[Span] = field(default=None, compare=False)


@record
class RefNew:
    cap: "Term"
    init: "Term"
    span: Optional[Span] = field(default=None, compare=False)


@record
class Deref:
    ref: "Term"
    span: Optional[Span] = field(default=None, compare=False)


@record
class Assign:
    ref: "Term"
    value: "Term"
    span: Optional[Span] = field(default=None, compare=False)


@record
class Let:
    var: Name
    bound: "Term"
    body: "Term"
    span: Optional[Span] = field(default=None, compare=False)


Term = Union[Cst, Nm, Lam, App, RefNew, Deref, Assign, Let]


# ---------------------------------------------------------------------------
# Graph terms (monadic normal form / graph IR)
# ---------------------------------------------------------------------------

@record
class NCst:
    value: object

    __eq__, __hash__ = _const_eq, _const_hash


@record
class NLam(_Memo):
    """A graph lambda; its memo holds `graph_free_names` of it, as `Lam`'s
    does."""

    param: Name
    param_qt: QualifiedType
    latent: RwEffect
    body: "GraphTerm"
    body_dep: Optional[DepMap] = None  # latent dependency of the body


@record
class NApp:
    fn: Name
    arg: Name


@record
class NRef:
    cap: Name
    init: Name


@record
class NDeref:
    ref: Name


@record
class NAssign:
    ref: Name
    value: Name


GraphNode = Union[NCst, NLam, NApp, NRef, NDeref, NAssign]


@record
class GName:
    name: Name


@record
class GLet:
    var: Name
    binding: "Binding"
    body: "GraphTerm"
    dep: Optional[DepMap] = None  # dependency annotation on the binding


GraphTerm = Union[GName, GLet]
Binding = Union[GraphNode, GName, GLet]


# The records that nest (terms and graph terms with children, function
# types and qualified types) compare and hash by one structural walk on
# an explicit stack, so that any depth of nesting, a let spine's
# included, compares within the default recursion limit. Their compared
# values are their fields but spans; any other value, a leaf record
# included, compares by its own `==`.

def _tree_eq(a, b) -> bool:
    if type(b) is not type(a):
        return NotImplemented
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        values = _COMPARED.get(type(x))
        if values is None:
            if x != y:
                return False
        elif type(y) is not type(x):
            return False
        else:
            todo += zip(values(x), values(y))
    return True


def _tree_hash(t) -> int:
    leaves, todo = [], [t]
    while todo:
        x = todo.pop()
        values = _COMPARED.get(type(x))
        if values is None:
            leaves.append(x)
        else:
            leaves.append(type(x))
            todo += values(x)
    return hash(tuple(leaves))


def _structural(cls) -> Callable:
    """Give `cls` the structural `==` and hash; returns the getter of the
    tuple of its compared values."""
    cls.__eq__, cls.__hash__ = _tree_eq, _tree_hash
    names = [f.name for f in fields(cls) if f.compare]
    get = attrgetter(*names)
    return get if len(names) > 1 else lambda x: (get(x),)


_COMPARED = {cls: _structural(cls) for cls in (
    Lam, App, RefNew, Deref, Assign, Let, NLam, GLet, FunTy, QualifiedType)}


# ---------------------------------------------------------------------------
# The operator table
# ---------------------------------------------------------------------------

@record
class Operator:
    """One operator: its name (as JSON, DOT and the scheduler spell it), its
    direct-style and graph classes, and its operand fields. Both classes
    name the operand fields alike, so one getter reads either."""

    op: str
    term: type
    node: type
    fields: tuple
    operands: Callable  # a term or node of this operator -> its operands


def _operator(op: str, term: type, node: type, *fields: str) -> Operator:
    get = attrgetter(*fields)
    if len(fields) == 1:
        return Operator(op, term, node, fields, lambda x: (get(x),))
    return Operator(op, term, node, fields, get)


OPERATORS = (
    _operator("app", App, NApp, "fn", "arg"),
    _operator("ref", RefNew, NRef, "cap", "init"),
    _operator("deref", Deref, NDeref, "ref"),
    _operator("assign", Assign, NAssign, "ref", "value"),
)
# Term walkers look operators up by term class and graph walkers by node
# class, so neither accepts the other side's operators.
TERM_OPERATOR = {o.term: o for o in OPERATORS}
NODE_OPERATOR = {o.node: o for o in OPERATORS}


def node_operator(g) -> Operator:
    """The table row of a graph node; TypeError for anything else."""
    o = NODE_OPERATOR.get(type(g))
    if o is None:
        raise TypeError(g)
    return o


def node_operands(g) -> tuple:
    """The operand names of a graph node, in field order."""
    return node_operator(g).operands(g)


def term_operands(t) -> tuple:
    """The subterms of an operator term, in field order; TypeError for
    anything else."""
    o = TERM_OPERATOR.get(type(t))
    if o is None:
        raise TypeError(t)
    return o.operands(t)


def term_children(t) -> list:
    """The immediate subterms of any term: a lambda's body, a let's bound
    term and body, an operator's operands."""
    if isinstance(t, (Cst, Nm)):
        return []
    if isinstance(t, Lam):
        return [t.body]
    if isinstance(t, Let):
        return [t.bound, t.body]
    return list(term_operands(t))


def term_with_child(t, i: int, new):
    """`t` with its `i`th child, as `term_children` counts, replaced."""
    if isinstance(t, Let):
        return Let(t.var, new, t.body) if i == 0 else Let(t.var, t.bound, new)
    if isinstance(t, Lam):
        return Lam(t.param, t.param_qt, t.latent, new)
    kids = list(term_operands(t))
    kids[i] = new
    return type(t)(*kids)


# ---------------------------------------------------------------------------
# Let spines, free names, renaming and substitution
# ---------------------------------------------------------------------------

def spine(t) -> tuple[list, object]:
    """The let spine of a term or graph term: its `Let` or `GLet` nodes,
    outermost first, and the tail that ends it. Walkers loop over it, and
    descend (see `descend`) only into lambda bodies, operands and nested
    blocks."""
    lets = []
    while isinstance(t, (Let, GLet)):
        lets.append(t)
        t = t.body
    return lets, t


def term_free_names(t: Term) -> frozenset:
    """Free names of a term, including names mentioned inside type
    annotations (qualifiers on lambda parameters and latent effects)."""
    return descend(_term_free(t))


def _term_free(t: Term):
    if isinstance(t, Cst):
        return EMPTY_QUAL
    if isinstance(t, Nm):
        return frozenset((t.name,))
    if isinstance(t, Lam):
        free = getattr(t, "_memo", None)
        if free is not None:
            return free
    return _term_free_nested(t)


def _term_free_nested(t: Term):
    lets, t = spine(t)
    if isinstance(t, (Cst, Nm)):
        free = _term_free(t)
    elif isinstance(t, Lam):
        free = ((yield _term_free(t.body)) | qt_free_names(t.param_qt)
                | t.latent.flat) - {t.param}
        _Memo._memo.__set__(t, free)
    else:
        free = EMPTY_QUAL
        for u in term_operands(t):
            free = free | (yield _term_free(u))
    for u in reversed(lets):
        free = (yield _term_free(u.bound)) | (free - {u.var})
    return free


def rename_qual(q: Qualifier, mapping: dict) -> Qualifier:
    if not any(n in mapping for n in q):
        return q
    return frozenset(mapping.get(n, n) for n in q)


def rename_effect(e: RwEffect, mapping: dict) -> RwEffect:
    return RwEffect(rename_qual(e.reads, mapping), rename_qual(e.writes, mapping))


def _rename_ty(ty: Ty, mapping: dict) -> Ty:
    if isinstance(ty, (BaseTy, RefTy)):
        return ty
    if isinstance(ty, FunTy):
        inner = {k: v for k, v in mapping.items() if k != ty.param}
        return FunTy(ty.param,
                     rename_qt(ty.param_qt, inner),
                     rename_effect(ty.latent, inner),
                     rename_qt(ty.result_qt, inner))
    raise TypeError(ty)


def rename_qt(qt: QualifiedType, mapping: dict) -> QualifiedType:
    return QualifiedType(_rename_ty(qt.ty, mapping), rename_qual(qt.qual, mapping))


def subst_term(t: Term, x: Name, v: Term) -> Term:
    """t[v/x]: substitute a value term for a variable (Barendregt inputs,
    so v is never captured). A lambda's annotations take q[p/x], p being
    v's free names: {l} for a location, a closure's captures, and the
    empty set for a constant."""
    return descend(_subst(t, x, v))


def _subst(t: Term, x: Name, v: Term):
    lets, t = spine(t)
    cut = next((i for i, u in enumerate(lets) if u.var == x), None)
    if cut is not None:  # a let rebinds x: its body is out of scope
        lets, t = lets[:cut + 1], lets[cut].body
    elif isinstance(t, Nm):
        t = v if t.name == x else t
    elif isinstance(t, Lam) and t.param != x:
        qt, latent = t.param_qt, t.latent
        if x in latent.reads or x in latent.writes or x in qt_free_names(qt):
            p = term_free_names(v)
            qt, latent = subst_qual_qt(qt, x, p), latent.subst(x, p)
        t = Lam(t.param, qt, latent, (yield _subst(t.body, x, v)))
    elif not isinstance(t, (Cst, Lam)):
        kids = []
        for u in term_operands(t):
            kids.append((yield _subst(u, x, v)))
        t = type(t)(*kids)
    for u in reversed(lets):
        t = Let(u.var, (yield _subst(u.bound, x, v)), t)
    return t


def alpha_equal_terms(t1: Term, t2: Term) -> bool:
    """Structural equality up to consistent renaming of bound names."""
    return descend(_alpha(t1, t2, {}))


def _alpha(a, b, env: dict):
    (lets_a, a), (lets_b, b) = spine(a), spine(b)
    if len(lets_a) != len(lets_b) or type(a) is not type(b):
        return False
    if lets_a:
        env = dict(env)
        for u, w in zip(lets_a, lets_b):
            if not (yield _alpha(u.bound, w.bound, env)):
                return False
            env[u.var] = w.var
    if isinstance(a, Cst):
        return a == b
    if isinstance(a, Nm):
        return env.get(a.name, a.name) == b.name
    if isinstance(a, Lam):
        env2 = dict(env)
        env2[a.param] = b.param
        return (rename_qt(a.param_qt, env) == rename_qt(b.param_qt, {})
                and rename_effect(a.latent, env) == b.latent
                and (yield _alpha(a.body, b.body, env2)))
    for u, w in zip(term_operands(a), term_operands(b)):
        if not (yield _alpha(u, w, env)):
            return False
    return True


def graph_free_names(g: Union[GraphTerm, GraphNode]) -> frozenset:
    return descend(_graph_free(g))


def _graph_free(g):
    if isinstance(g, GName):
        return frozenset((g.name,))
    if isinstance(g, NCst):
        return EMPTY_QUAL
    if isinstance(g, NLam):
        free = getattr(g, "_memo", None)
        if free is not None:
            return free
    elif not isinstance(g, GLet):
        return frozenset(node_operands(g))
    return _graph_free_nested(g)


def _graph_free_nested(g):
    lets, g = spine(g)
    if isinstance(g, NLam):
        free = ((yield _graph_free(g.body)) | qt_free_names(g.param_qt)
                | g.latent.flat) - {g.param}
        _Memo._memo.__set__(g, free)
    else:
        free = _graph_free(g)
    for u in reversed(lets):
        free = (yield _graph_free(u.binding)) | (free - {u.var})
    return free


def rename_graph(g, mapping: dict, *, fresh: Optional[NameSupply] = None,
                 dep: Optional[Callable] = None):
    """Capture-avoiding renaming of the free names of a graph term/node.

    With a `fresh` supply every binder is renamed to a new name (minted
    outside-in, each before its binding) and its uses follow. `dep` maps
    every dependency annotation; by default they are kept (their updates
    go through rewiring and domain substitution)."""
    if not mapping and (fresh is None and dep is None
                        or not isinstance(g, (GLet, NLam))):
        return g  # no name, binder or annotation to change

    def bind(v: Name, m: dict):
        """A binder's new name and the mapping its scope sees."""
        if fresh is not None:
            v2 = fresh.fresh_like(v)
            return v2, {**m, v: v2}
        if v in m:
            return v, {k: w for k, w in m.items() if k != v}
        return v, m

    def ann(d):
        return d if dep is None or d is None else dep(d)

    def step(g, m):
        if isinstance(g, GName):
            n = m.get(g.name)
            return g if n is None else GName(n)
        if isinstance(g, (GLet, NLam)):
            return go(g, m)
        if m and not isinstance(g, NCst):
            return type(g)(*[m.get(n, n) for n in node_operands(g)])
        return g

    def go(g, m):
        lets, g = spine(g)
        bound = []
        for u in lets:
            v, inner = bind(u.var, m)
            bound.append((v, (yield step(u.binding, m))))
            m = inner
        if isinstance(g, NLam):
            p, inner = bind(g.param, m)
            g = NLam(p, rename_qt(g.param_qt, inner),
                     rename_effect(g.latent, inner),
                     (yield step(g.body, inner)), ann(g.body_dep))
        else:
            g = step(g, m)
        for u, (v, b) in zip(reversed(lets), reversed(bound)):
            g = GLet(v, b, g, ann(u.dep))
        return g

    return descend(step(g, mapping))


# ---------------------------------------------------------------------------
# Stores and runtime configurations
# ---------------------------------------------------------------------------

@dataclass
class Cell:
    """A mutable reference cell; content is a constant (direct semantics)
    or a location name (store-allocated semantics)."""

    content: object


@dataclass
class SavedCst:
    value: object


@dataclass
class SavedLam:
    """A closure: a `Lam` (store semantics) or an `NLam` (graph
    semantics)."""

    lam: Union[Lam, NLam]


StoreEntry = Union[_Atom, Cell, SavedCst, SavedLam]  # the atom is ω


class Store:
    """Allocation-ordered mapping from locations to entries: ω itself,
    cells, saved constants and saved closures. Entry 0 always binds the
    capability w = ω."""

    def __init__(self):
        self.supply = NameSupply()
        self.w = self.supply.loc("w")
        self.entries: dict = {self.w: OMEGA}

    def alloc(self, entry: StoreEntry, text: str = "l") -> Name:
        loc = self.supply.loc(text)
        self.entries[loc] = entry
        return loc

    def __contains__(self, loc: Name) -> bool:
        return loc in self.entries

    def __getitem__(self, loc: Name) -> StoreEntry:
        try:
            return self.entries[loc]
        except KeyError:
            raise UnboundName(f"location {loc!r} not in store", name=loc)

    def copy(self) -> "Store":
        s = Store.__new__(Store)
        s.supply = NameSupply(self.supply.next_id)
        s.w = self.w
        s.entries = {loc: Cell(e.content) if isinstance(e, Cell) else e
                     for loc, e in self.entries.items()}
        return s

    def typing(self) -> TypingContext:
        """Store typing: capability at Alloc^∅, cells at Ref B^∅, saved
        constants at their base types; phi = the whole store domain. A saved
        closure's result type needs the checker, so it raises TypeError."""
        env = {}
        for loc, e in self.entries.items():
            if e is OMEGA:
                env[loc] = QualifiedType(TY_ALLOC)
            elif isinstance(e, Cell):
                content = e.content
                if isinstance(content, Name):
                    # the store and graph semantics fill cells with the
                    # locations of saved constants
                    inner = self.entries.get(content)
                    if not isinstance(inner, SavedCst):
                        raise TypeError(f"cell {loc!r} holds {content!r}, "
                                        f"not a saved constant")
                    content = inner.value
                env[loc] = QualifiedType(RefTy(const_base(content)))
            elif isinstance(e, SavedCst):
                env[loc] = QualifiedType(const_base(e.value))
            else:
                raise TypeError(f"cannot type the closure at {loc!r} "
                                f"without the checker")
        return TypingContext(env, frozenset(env))


def initial_store() -> Store:
    return Store()


@dataclass
class RuntimeConfig:
    store: Store
    z: Name
    graph: GraphTerm
    dep: DepMap = field(default_factory=lambda: EMPTY_DEP)


# ---------------------------------------------------------------------------
# Pretty printing (surface syntax)
# ---------------------------------------------------------------------------

def qual_to_text(q: Qualifier) -> str:
    return "{" + ",".join(n.pretty() for n in sorted(q)) + "}"


def effect_to_text(e: RwEffect) -> str:
    return f"rd{qual_to_text(e.reads)} wr{qual_to_text(e.writes)}"


def ty_to_text(ty: Ty) -> str:
    return descend(_ty_text(ty))


def _ty_text(ty: Ty):
    if isinstance(ty, BaseTy):
        return ty.name
    if isinstance(ty, RefTy):
        return f"Ref[{ty.payload.name}]"
    if isinstance(ty, FunTy):
        param = yield _ty_text(ty.param_qt.ty)
        result = yield _ty_text(ty.result_qt.ty)
        return (f"(({ty.param.pretty()}: "
                f"{param}^{qual_to_text(ty.param_qt.qual)}) "
                f"=>{{{effect_to_text(ty.latent)}}} "
                f"{result}^{qual_to_text(ty.result_qt.qual)})")
    raise TypeError(ty)


def qt_to_text(qt: QualifiedType) -> str:
    return f"{ty_to_text(qt.ty)}^{qual_to_text(qt.qual)}"


def _atom(t: Term) -> bool:
    return isinstance(t, (Cst, Nm))


def term_to_text(t: Term) -> str:
    return descend(_term_text(t))


def _term_text(t: Term):
    if isinstance(t, Cst):
        return const_text(t.value)
    if isinstance(t, Nm):
        return t.name.pretty()
    if isinstance(t, Lam):
        body = yield _term_text(t.body)
        return (f"fun ({t.param.pretty()}: {qt_to_text(t.param_qt)}) "
                f"=>{{{effect_to_text(t.latent)}}} {body}")
    if isinstance(t, App):
        fn = yield _term_text(t.fn)
        if not isinstance(t.fn, (Nm, App)):
            fn = f"({fn})"
        arg = yield _term_text(t.arg)
        if not _atom(t.arg):
            arg = f"({arg})"
        return f"{fn} {arg}"
    if isinstance(t, RefNew):
        cap = yield _term_text(t.cap)
        return f"ref({cap}, {(yield _term_text(t.init))})"
    if isinstance(t, Deref):
        inner = yield _term_text(t.ref)
        if not _atom(t.ref):
            inner = f"({inner})"
        return f"!{inner}"
    if isinstance(t, Assign):
        lhs = yield _term_text(t.ref)
        if not _atom(t.ref):
            lhs = f"({lhs})"
        rhs = yield _term_text(t.value)
        if not _atom(t.value) and not isinstance(t.value, App):
            rhs = f"({rhs})"
        return f"{lhs} := {rhs}"
    if isinstance(t, Let):
        lets, t = spine(t)
        out = []
        for u in lets:
            bound = yield _term_text(u.bound)
            out.append(f"let {u.var.pretty()} = {bound} in ")
        return "".join(out) + (yield _term_text(t))
    raise TypeError(t)


def graph_to_text(g: Union[GraphTerm, GraphNode]) -> str:
    """Graph terms printed in the same surface syntax (parseable)."""
    return descend(_graph_text(g))


def _graph_text(g):
    if isinstance(g, GName):
        return g.name.pretty()
    if isinstance(g, GLet):
        lets, g = spine(g)
        out = []
        for u in lets:
            binding = yield _graph_text(u.binding)
            if isinstance(u.binding, (GLet,)):
                binding = f"({binding})"
            out.append(f"let {u.var.pretty()} = {binding} in ")
        return "".join(out) + (yield _graph_text(g))
    if isinstance(g, NCst):
        return const_text(g.value)
    if isinstance(g, NLam):
        body = yield _graph_text(g.body)
        if isinstance(g.body, GLet):
            body = f"({body})"
        return (f"fun ({g.param.pretty()}: {qt_to_text(g.param_qt)}) "
                f"=>{{{effect_to_text(g.latent)}}} {body}")
    if isinstance(g, NApp):
        return f"{g.fn.pretty()} {g.arg.pretty()}"
    if isinstance(g, NRef):
        return f"ref({g.cap.pretty()}, {g.init.pretty()})"
    if isinstance(g, NDeref):
        return f"!{g.ref.pretty()}"
    if isinstance(g, NAssign):
        return f"{g.ref.pretty()} := {g.value.pretty()}"
    raise TypeError(g)
