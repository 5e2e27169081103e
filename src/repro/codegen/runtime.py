"""The layout-independent half of every compiled relation class.

:func:`repro.codegen.compile_relation` emits only what a layout decides:
the unrolled mutators, the per-pattern query methods and the dispatch
tables.  Everything that reads the same for every layout lives here as
ordinary Python, imported by each generated module under the names the
emitted code uses (``_MISS`` is the missing-entry sentinel: ``None`` is a
legal stored value).
"""

from __future__ import annotations

from bisect import bisect_left as _bl
from functools import partial as _partial
from operator import is_not as _is_not, itemgetter as _itemgetter

from ..core.interface import RelationInterface
from ..core.relation import Relation
from ..core.tuples import Tuple
from ..core.values import value_sort_key as _VSK
from ..structures.base import COUNTER as _C

_MISS = object()
_ig0 = _itemgetter(0)
_ig1 = _itemgetter(1)
#: ``_hit(x)`` is ``x is not None``: an identity test, where ``None in``
#: a list of Tuples would run ``Tuple.__eq__`` against ``None`` per entry.
_hit = _partial(_is_not, None)

#: Entries an interning memo (a relation's value->Tuple ``_t_cache``, or one
#: output projection's memo) may hold before a fill clears it.  The memos map
#: values to Tuples, so clearing one costs re-creation, never correctness;
#: bounding them keeps churn (insert, read, remove) from growing a relation
#: whose contents do not grow.
INTERN_BOUND = 131072

# Undo-journal entry kinds.  Mutators append ``(kind, ...)`` tuples while
# they work; ``_undo`` replays them newest-first on the exception path.
J_SET = 0  # (J_SET, dict, key, old value or _MISS): restore the entry
J_FRESH = 1  # (J_FRESH, dict, key): delete a freshly linked entry
J_CELL = 2  # (J_CELL, shared unit cell, old residual): restore it
J_RELINK = 3  # (J_RELINK, list, entry): relink a deleted list entry
J_APPENDED = 4  # (J_APPENDED, list): unlink the entry appended last
J_ROOT = 5  # (J_ROOT, relation, old root): restore a unit root
J_COUNT = 6  # (J_COUNT, relation, delta): restore the row count
J_VALUE = 7  # (J_VALUE, list entry, old value): restore the value


class _L(list):
    """Entry list of a list-strategy container, with a side index.

    The list of ``[key, value]`` entries is the structure being modelled:
    instrumented probes walk it and charge one access per visited entry,
    exactly like the hand-written list container.  ``idx`` maps key ->
    entry and is maintained by every mutation; it only serves the
    *uncounted* fast paths taken when the counter is disabled, so it can
    never change what an instrumented run observes."""

    __slots__ = ("idx",)

    def __init__(self):
        list.__init__(self)
        self.idx = {}


# List-layout helpers.  Each has an instrumented walk charging exactly one
# access per visited entry (hit included, full length on a miss) and an
# index-backed fast path for when the counter is off; the mutating ones
# maintain the side index and append one uncounted journal entry per
# mutation so the emitted rollback blocks can restore the entry exactly.
def _l_get(c, k):
    if _C.enabled:
        n = 0
        for e in c:
            n += 1
            if e[0] == k:
                _C.accesses += n
                return e[1]
        _C.accesses += n
        return _MISS
    e = c.idx.get(k)
    return _MISS if e is None else e[1]


def _l_put_j(c, k, v, j):
    if _C.enabled:
        n = 0
        for e in c:
            n += 1
            if e[0] == k:
                _C.accesses += n
                j.append((J_VALUE, e, e[1]))
                e[1] = v
                return
        _C.accesses += n
    else:
        e = c.idx.get(k)
        if e is not None:
            j.append((J_VALUE, e, e[1]))
            e[1] = v
            return
    e = [k, v]
    c.append(e)
    c.idx[k] = e
    j.append((J_APPENDED, c))


def _l_del_j(c, k, j):
    if _C.enabled:
        n = 0
        for i, e in enumerate(c):
            n += 1
            if e[0] == k:
                _C.accesses += n
                del c.idx[k]
                c[i] = c[-1]
                c.pop()
                j.append((J_RELINK, c, e))
                return True
        _C.accesses += n
        return False
    e = c.idx.pop(k, None)
    if e is None:
        return False
    c[c.index(e)] = c[-1]
    c.pop()
    j.append((J_RELINK, c, e))
    return True


def _undo(j):
    """Replay a mutator's undo journal newest-first.

    Replaying the entries in reverse restores the pre-operation state
    exactly.  Never charges the counter: it only runs on the exception
    path."""
    for x in reversed(j):
        k = x[0]
        if k == J_SET:
            if x[3] is _MISS:
                x[1].pop(x[2], None)
            else:
                x[1][x[2]] = x[3]
        elif k == J_FRESH:
            x[1].pop(x[2], None)
        elif k == J_CELL:
            x[1][0] = x[2]
        elif k == J_RELINK:
            x[1].append(x[2])
            x[1].idx[x[2][0]] = x[2]
        elif k == J_APPENDED:
            e = x[1].pop()
            x[1].idx.pop(e[0], None)
        elif k == J_ROOT:
            x[1]._root = x[2]
        elif k == J_COUNT:
            x[1]._count += x[2]
        elif k == J_VALUE:
            x[1][1] = x[2]
    del j[:]


class CompiledRelation(RelationInterface):
    """Base class of every generated relation class: the inspection methods
    that read no per-class constant."""

    def checkpoint(self):
        return self.to_relation()

    def __len__(self):
        return self._count

    def __repr__(self):
        return "%s(size=%d)" % (type(self).__name__, self._count)


def bind_query_boundary(cls, cols, spec, plans, vplans, vcols):
    """Install ``_pattern_dict``, ``query``, ``_query_rows``, ``_q_fallback``
    and ``to_relation`` on the generated class *cls*, as closures built once
    over its sorted columns, specification, dispatch tables (*plans*:
    frozenset pattern -> ``_q_<mask>``; *vplans*: mask -> ``_qv_<mask>``) and
    pattern-shape memo *vcols* — so the hot paths read closure cells, never
    a global or a class attribute."""
    colset = frozenset(cols)
    colindex = {c: i for i, c in enumerate(cols)}
    colbit = {c: 1 << i for i, c in enumerate(cols)}

    def _pattern_dict(self, pattern, role):
        if pattern is None:
            return {}
        if type(pattern) is Tuple:
            d = dict(pattern._items)
        else:
            d = Tuple(pattern).as_dict()
        if not colset.issuperset(d):
            spec.check_partial_tuple(Tuple(d), role=role)
        return d

    def query(self, pattern=None, output=None):
        # Fast path for Tuple patterns (the common caller): the sorted
        # _items pairs give the dispatch mask and the positional arguments
        # directly: no dict build, no frozenset, no per-column loads inside
        # the specialised method.
        if type(pattern) is Tuple:
            items = pattern._items
            # One dict probe on the sorted column tuple replaces the
            # per-column mask loop after the first sighting of each pattern
            # shape; 0 marks shapes served by the fallback.
            h = vcols.get(tuple(map(_ig0, items)))
            if h is None:
                m = 0
                for c, _ in items:
                    b = colbit.get(c)
                    if b is None:
                        spec.check_partial_tuple(pattern, role="query pattern")
                    m |= b
                h = vplans.get(m, 0)
                vcols[tuple(map(_ig0, items))] = h
            if h:
                rows = h(self, *map(_ig1, items))
            else:
                rows = self._q_fallback(dict(items))
        else:
            p = self._pattern_dict(pattern, "query pattern")
            rows = self._query_rows(p)
        if output is None:
            # Interned full-row boundary: one dict probe per row in the
            # steady state instead of a Tuple construction.  The memo is a
            # pure value->Tuple map, so entries for rows no longer stored
            # are merely unused, never wrong.  map() keeps the all-hits path
            # entirely in C; the Python loop only runs to fill cache misses.
            if type(rows) is not list:
                rows = list(rows)
            tc = self._t_cache
            res = list(map(tc.get, rows))
            if not all(map(_hit, res)):
                if len(tc) >= INTERN_BOUND:
                    tc.clear()
                mk = Tuple.from_sorted_items
                for i, t in enumerate(res):
                    if t is None:
                        r = rows[i]
                        t = mk(zip(cols, r))
                        tc[r] = t
                        res[i] = t
            return res
        # The projection cache is keyed by the raw ``output`` value (when
        # hashable) so repeat queries skip column validation entirely; only
        # values that already passed validation are ever cached.
        try:
            cached = self._proj_cache.get(output)
        except TypeError:
            cached = None
        if cached is None:
            wanted = spec.check_output_columns(output)
            cached = self._proj_cache.get(wanted)
            if cached is None:
                out_cols = tuple(sorted(wanted))
                idxs = tuple(colindex[c] for c in out_cols)
                getter = _itemgetter(*idxs) if len(idxs) > 1 else None
                cached = (out_cols, idxs, getter, {})
                self._proj_cache[wanted] = cached
            try:
                self._proj_cache[output] = cached
            except TypeError:
                pass
        out_cols, idxs, getter, interned = cached
        if len(interned) >= INTERN_BOUND:
            interned.clear()
        if getter is not None:
            seen = set(map(getter, rows))
        else:
            i0 = idxs[0]
            seen = {(r[i0],) for r in rows}
        mk = Tuple.from_sorted_items
        res = []
        ap = res.append
        for vals in seen:
            t = interned.get(vals)
            if t is None:
                t = mk(zip(out_cols, vals))
                interned[vals] = t
            ap(t)
        return res

    def _query_rows(self, p):
        if not p:
            return self._qv_0()
        handler = plans.get(frozenset(p))
        if handler is None:
            return self._q_fallback(p)
        return handler(self, p)

    def _q_fallback(self, p):
        """Scan-and-filter fallback for patterns with no specialised method."""
        crit = [(colindex[c], v) for c, v in p.items()]
        for r in self._q_0({}):
            ok = True
            for i, v in crit:
                if r[i] != v:
                    ok = False
                    break
            if ok:
                yield r

    def to_relation(self):
        return Relation(cols, [Tuple.from_sorted_items(zip(cols, r)) for r in self._rows_path_0()])

    for fn in (_pattern_dict, query, _query_rows, _q_fallback, to_relation):
        fn.__qualname__ = f"{cls.__name__}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    # ABCMeta fixed the abstract set when the class body ran, before these
    # existed; recompute it (abc.update_abstractmethods, Python 3.10+).
    cls.__abstractmethods__ = frozenset(
        name
        for name in cls.__abstractmethods__
        if getattr(getattr(cls, name, None), "__isabstractmethod__", False)
    )


def intern_rows(tc, cols, rows):
    """Full-row Tuples for value tuples *rows* over *cols*, in order,
    interned through the relation's value->Tuple memo *tc*."""
    if len(tc) >= INTERN_BOUND:
        tc.clear()
    mk = Tuple.from_sorted_items
    res = []
    ap = res.append
    for r in rows:
        t = tc.get(r)
        if t is None:
            t = mk(zip(cols, r))
            tc[r] = t
        ap(t)
    return res


def sync_range_snapshot(rel, c0):
    """Bring *rel*'s sorted ``(sort_key, key)`` snapshot of its ordered root
    container *c0* up to date with the root keys logged in ``rel._rlog``.

    Writers add a key to the log as they link it into or unlink it from
    *c0*, so the log holds every key whose membership may have changed
    since the last range read, each once.  Each is re-checked against *c0*
    and bisected into or out of the snapshot: a repair costs one bisection
    and at most one list insert or delete per logged key, not a diff of
    all n keys.  A key whose write was rolled back re-checks
    as unchanged.  Writers stop adding once the log holds more than an
    eighth of the snapshot's keys; a log that long is replaced by the net
    change of the whole key set, diffed against the snapshot itself, and
    only a net change that large too rebuilds the snapshot from *c0*.
    Charges nothing: the caller charges the modelled tree descent, which
    is the same whether or not the snapshot was stale.
    """
    log = rel._rlog
    bound = len(rel._rkeys) >> 3
    if len(log) > bound:
        log = c0.keys() ^ {p[1] for p in rel._rord}
    if len(log) > bound:
        o = [(_VSK(k), k) for k in c0]
        o.sort(key=_ig0)
        rel._rord = o
        rel._rkeys = [p[0] for p in o]
    else:
        o = rel._rord
        ks = rel._rkeys
        for k in log:
            kk = _VSK(k)
            ix = _bl(ks, kk)
            # Unequal keys can share a sort key (the repr fallback); step
            # over those to the entry holding k, if any.  Keys match as in
            # a dict, by identity, then equality: a NaN key finds itself.
            while ix < len(ks) and ks[ix] == kk:
                x = o[ix][1]
                if x is k or x == k:
                    break
                ix += 1
            held = ix < len(ks) and ks[ix] == kk
            if k in c0:
                if not held:
                    o.insert(ix, (kk, k))
                    ks.insert(ix, kk)
            elif held:
                del o[ix]
                del ks[ix]
    rel._rlog = set()
