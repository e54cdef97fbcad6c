"""The verdict oracle: judges answers without the simulation search.

Two independent judges, both run after the timed phase:

* **construction** — a family whose answer is known by how it was
  built (``Check.expect``): restrictions, renamed copies, reflexive
  pairs, unions whose last branch covers, chase flips, pigeonhole
  pairs.  The verdict must equal it.
* **evaluation** — both queries are evaluated by the reference
  interpreter (``repro.coql.evaluate_coql``) on a set of databases and
  compared in the Hoare order (``repro.objects.order.dominated``).  A
  True verdict must hold on every database; a False verdict must be
  refuted by at least one.  The set is the seeded random databases
  (some with empty relations) plus the *frozen* databases of the
  contained side: its body with every equality class replaced by one
  value, keeping the nesting levels down to each cut in turn, so the
  deeper sets are empty.  Chase pairs use databases that satisfy the
  dependency.

Pigeonhole pairs are judged by construction only: the interpreter
binds every generator before it tests a condition, and a K7 clique
query has 43 of them.  The oracle never calls ``method="canonical"``.
"""

import random

from repro.coql.ast import Const, Proj, RecordExpr, RelRef, Select, UnionBody, VarRef
from repro.coql.eval import evaluate_coql
from repro.coql.parser import parse_coql
from repro.objects.database import Database
from repro.objects.order import dominated
from repro.objects.types import ATOM, RecordType

from inputs import CHASE_DEP, COMPANY_SCHEMA, GEN_SCHEMA, ORDERS_SCHEMA

__all__ = ["Oracle"]

#: Random databases per schema.
RANDOM_DATABASES = 12

#: Labels of ``classify_many`` as (query ⊑ view, view ⊑ query).
LABELS = {
    "equivalent": (True, True),
    "subsuming": (True, False),
    "contained": (False, True),
    "irrelevant": (False, False),
}


def _random_db(rng, schema, rows, domain, empty):
    tables = {}
    for name in sorted(schema):
        count = 0 if name in empty else rng.randint(1, rows)
        tables[name] = [
            {attr: rng.randrange(domain) for attr in schema[name]}
            for _ in range(count)
        ]
    return tables


def _databases(rng, schema, count, rows=3, domain=3):
    """*count* table dicts over *schema*: the first ones leave each
    relation (then every relation) empty in turn, the rest are random
    with one to *rows* rows per relation."""
    names = sorted(schema)
    out = [_random_db(rng, schema, rows, domain, {name}) for name in names]
    out.append(_random_db(rng, schema, rows, domain, set(names)))
    while len(out) < count:
        empty = {n for n in names if rng.random() < 0.1}
        out.append(_random_db(rng, schema, rows, domain, empty))
    return out


def _satisfying(tables):
    """The tables with ``r := r ∪ m``, so ``m[a,b] -> r[a,b]`` holds."""
    out = dict(tables)
    rows = {tuple(sorted(row.items())) for row in tables["r"] + tables["m"]}
    out["r"] = [dict(row) for row in sorted(rows)]
    return out


def _build(tables, schema):
    types = {name: RecordType({a: ATOM for a in attrs})
             for name, attrs in schema.items()}
    return Database.from_dict(tables, schema=types)


def _frozen(ast, schema, cut):
    """The frozen database of *ast* keeping generators of nesting
    levels ``0..cut``: one row per generator, each equality class of
    attribute paths holding its constant or a fresh value."""
    rels, conds = {}, []

    def term(expr):
        if isinstance(expr, Const):
            return ("c", expr.value)
        if isinstance(expr, Proj) and isinstance(expr.expr, VarRef):
            return ("p", expr.expr.name, expr.attr)
        raise ValueError("unexpected condition term %r" % (expr,))

    def walk(expr, level):
        if isinstance(expr, Select):
            for var, source in expr.generators:
                if isinstance(source, RelRef) and level <= cut:
                    rels[var] = source.name
            conds.extend(expr.conditions)
            walk(expr.head, level + 1)
        elif isinstance(expr, RecordExpr):
            for _, field in expr.fields:
                walk(field, level)

    walk(ast, 0)
    parent = {}

    def find(t):
        while t in parent:
            t = parent[t]
        return t

    for left, right in conds:
        a, b = find(term(left)), find(term(right))
        if a != b:
            if a[0] == "c":
                a, b = b, a
            parent[a] = b
    fresh = {}
    tables = {name: [] for name in schema}
    for var, rel in sorted(rels.items()):
        row = {}
        for attr in schema[rel]:
            root = find(("p", var, attr))
            if root[0] == "c":
                row[attr] = root[1]
            else:
                row[attr] = fresh.setdefault(root, 10 + len(fresh))
        tables[rel].append(row)
    return tables


def _blocks(ast, depth=0, scope=None):
    """Yield ``(depth, generators, conditions, outer)`` for every select
    block of *ast*: its ``{var: relation}``, its equality conditions and
    the variables bound by the blocks around it."""
    scope = {} if scope is None else scope
    if isinstance(ast, UnionBody):
        for branch in ast.branches:
            yield from _blocks(branch, depth, scope)
    elif isinstance(ast, Select):
        gens = {var: source.name for var, source in ast.generators
                if isinstance(source, RelRef)}
        yield depth, gens, ast.conditions, set(scope)
        inner = dict(scope, **gens)
        yield from _blocks(ast.head, depth + 1, inner)
    elif isinstance(ast, RecordExpr):
        for _, field in ast.fields:
            yield from _blocks(field, depth, scope)


def _correlated(ast):
    """``(depth, relation)`` of every nested generator whose attribute
    the equalities of its block tie to a variable of an outer block."""
    out = set()
    for depth, gens, conds, outer in _blocks(ast):
        parent = {}

        def find(t):
            while t in parent:
                t = parent[t]
            return t

        terms = []
        for left, right in conds:
            pair = [(e.expr.name, e.attr) for e in (left, right)
                    if isinstance(e, Proj) and isinstance(e.expr, VarRef)]
            terms += pair
            if len(pair) == 2 and find(pair[0]) != find(pair[1]):
                parent[find(pair[0])] = find(pair[1])
        tied = {find(t) for t in terms if t[0] in outer}
        out.update((depth, rel) for var, rel in gens.items()
                   if any(find(t) in tied for t in terms if t[0] == var))
    return out


def _cross_level(sup, sub, alias=None):
    """Whether ``sub ⊑ sup`` may need a nested generator of *sup* to be
    witnessed by a generator of an outer block of *sub*: *sup* has a
    correlated nested generator over a relation that *sub* ranges over
    in a block above.  *alias* renames relations first (a dependency's
    source stands for its target)."""
    alias = alias or {}
    shallow = [(depth, alias.get(rel, rel))
               for depth, gens, _, _ in _blocks(sub) for rel in gens.values()]
    return any(d2 < d and rel2 == alias.get(rel, rel)
               for d, rel in _correlated(sup) for d2, rel2 in shallow)


def _depth(ast):
    if isinstance(ast, Select):
        return 1 + _depth(ast.head)
    if isinstance(ast, RecordExpr):
        return max([_depth(f) for _, f in ast.fields] or [0])
    return 0


class Oracle:
    """Seeded databases plus memoized evaluation.

    :param seed: the workload seed (the databases are drawn from a
        stream of their own, so they do not depend on how many inputs
        the workload drew).
    """

    def __init__(self, seed):
        rng = random.Random("oracle-%s" % seed)
        count = RANDOM_DATABASES
        gen = _databases(rng, GEN_SCHEMA, count)
        self._dbs = {
            "gen": [_build(t, GEN_SCHEMA) for t in gen],
            "chase": [_build(_satisfying(t), GEN_SCHEMA) for t in gen],
            "company": [_build(t, COMPANY_SCHEMA)
                        for t in _databases(rng, COMPANY_SCHEMA, count)],
            "orders": [_build(t, ORDERS_SCHEMA)
                       for t in _databases(rng, ORDERS_SCHEMA, count)],
        }
        self._schemas = {"gen": GEN_SCHEMA, "chase": GEN_SCHEMA,
                         "company": COMPANY_SCHEMA, "orders": ORDERS_SCHEMA}
        self._parsed = {}
        self._values = {}
        self._frozen = {}

    def _pool(self, check):
        if check.deps:
            if check.deps != (CHASE_DEP,):
                raise ValueError("no oracle databases for %r" % (check.deps,))
            return "chase"
        if check.schema is GEN_SCHEMA:
            return "gen"
        if check.schema is COMPANY_SCHEMA:
            return "company"
        if check.schema is ORDERS_SCHEMA:
            return "orders"
        return None

    def _parse(self, text):
        ast = self._parsed.get(text)
        if ast is None:
            ast = self._parsed[text] = parse_coql(text)
        return ast

    def _frozen_dbs(self, text, pool):
        """The frozen databases of *text* (per union branch, per cut)."""
        key = (text, pool)
        dbs = self._frozen.get(key)
        if dbs is None:
            schema = self._schemas[pool]
            ast = self._parse(text)
            branches = ast.branches if isinstance(ast, UnionBody) else (ast,)
            dbs = []
            for branch in branches:
                for cut in range(_depth(branch)):
                    tables = _frozen(branch, schema, cut)
                    if pool == "chase":
                        tables = _satisfying(tables)
                    dbs.append(_build(tables, schema))
            self._frozen[key] = dbs
        return [(key + (i,), db) for i, db in enumerate(dbs)]

    def _value(self, text, db_key, db):
        key = (text, db_key)
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = evaluate_coql(self._parse(text), db)
        return value

    def _holds(self, pool, sup, sub):
        """Whether ``sub ⊑ sup`` holds on every database of *pool* and
        on the frozen databases of *sub*."""
        dbs = [((pool, i), db) for i, db in enumerate(self._dbs[pool])]
        dbs += self._frozen_dbs(sub, pool)
        for db_key, db in dbs:
            if not dominated(self._value(sub, db_key, db),
                             self._value(sup, db_key, db)):
                return False
        return True

    def exposed(self, check):
        """Whether *check* may meet known fault 3 (see the README): its
        answer is not fixed by construction, a containment it asks about
        holds on every oracle database, and that containment may need a
        nested generator of the containing side witnessed by an outer
        generator of the contained side.  The workloads leave such
        pairs out of their seeded streams, because the fault then shows
        on some seeds only; every round of ``cold_stream`` and
        ``warm_zipf`` carries fixed instances of it instead.

        A pair whose sides are restrictions of one query (a relaxation,
        a classified query against its kin views) is not screened: every
        generator of either side but those the restrictions add has its
        own copy at its own depth in the other side, and an added one
        is joined to its own block only."""
        if (check.expect is not None or check.op == "equiv"
                or check.family == "gen_relax"):
            return False
        pool = self._pool(check)
        alias = {"m": "r"} if pool == "chase" else None
        if check.op == "classify":
            pairs = [p for view in check.views if view not in check.kin
                     for p in ((view, check.sub), (check.sub, view))]
        else:
            pairs = [(check.sup, check.sub)]
        return any(
            _cross_level(self._parse(sup), self._parse(sub), alias)
            and self._holds(pool, sup, sub) for sup, sub in pairs)

    def judge(self, check, answer):
        """None when *answer* passes, else a one-line reason."""
        if check.op == "classify":
            return self._judge_classify(check, answer)
        if answer is not True and answer is not False:
            return "not a verdict: %r" % (answer,)
        if check.expect is not None and answer != check.expect:
            return "construction says %s, engine says %s" % (
                check.expect, answer)
        pool = self._pool(check)
        if pool is None:
            return None
        holds = self._holds(pool, check.sup, check.sub)
        if check.op == "equiv" and holds:
            holds = self._holds(pool, check.sub, check.sup)
        if answer and not holds:
            return "True verdict refuted by an oracle database"
        if not answer and holds:
            return "False verdict refuted by no oracle database"
        return None

    def _judge_classify(self, check, labels):
        if not isinstance(labels, list) or len(labels) != len(check.views):
            return "not a label list: %r" % (labels,)
        pool = self._pool(check)
        for view, label in zip(check.views, labels):
            if label not in LABELS:
                return "unknown label %r" % (label,)
            for claimed, holds in zip(
                LABELS[label],
                (self._holds(pool, view, check.sub),
                 self._holds(pool, check.sub, view)),
            ):
                if claimed != holds:
                    return "label %r disagrees with the oracle databases" % (
                        label,)
        return None
