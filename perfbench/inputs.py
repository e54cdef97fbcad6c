"""Seeded inputs for the benchmark workloads.

Everything here is the benchmark's own: the query generator, the
scenario templates, the pigeonhole pairs and the oracle databases.  The
program under test only ever receives the query texts, schemas and
dependency declarations built here, so a change to the program's own
generators cannot change what the benchmark measures.

A :class:`Check` is one call into the engine (``contains``,
``weakly_equivalent`` or ``classify_many``).  ``expect`` records what
the construction guarantees (True / False), or None when only the
oracle's databases can judge the verdict.
"""

import random

__all__ = [
    "CHASE_DEP",
    "GEN_SCHEMA",
    "PIGEON_SCHEMA",
    "Check",
    "Generator",
    "redundant_correlated",
]

#: Generated queries draw the generators of every nesting level from
#: ``r`` and ``s``; ``m`` is the chase dependency's source.
GEN_SCHEMA = {"r": ("a", "b"), "s": ("a", "b"), "m": ("a", "b")}
RELATIONS = ("r", "s")
PIGEON_SCHEMA = {"e": ("a", "b")}
#: Generators per generated query before a restriction adds one: the
#: oracle's interpreter enumerates every binding of a block before it
#: tests a condition, so its cost grows with this product.
MAX_GENERATORS = 6
#: The linear inclusion dependency the chase pairs are decided under.
CHASE_DEP = "m[a,b] -> r[a,b]"

COMPANY_SCHEMA = {
    "dept": ("dname", "floor"),
    "emp": ("name", "dep", "salary_band"),
}
ORDERS_SCHEMA = {
    "orders": ("cust", "item"),
    "catalog": ("item", "category"),
    "gold": ("cust",),
}

#: The scenario queries (company and orders), with their variables as
#: ``{placeholders}`` so every copy can be renamed apart.
SCENARIOS = {
    "company": (COMPANY_SCHEMA, (
        "select [d: {x}.dname, staff: select [n: {y}.name] from {y} in emp"
        " where {y}.dep = {x}.dname] from {x} in dept",
        "select [d: {x}.dname, staff: select [n: {y}.name] from {y} in emp"
        " where {y}.dep = {x}.dname] from {x} in dept, {w} in emp"
        " where {w}.dep = {x}.dname",
        "select [d: {x}.dname, staff: select [n: {y}.name] from {y} in emp]"
        " from {x} in dept",
        "select [d: {x}.dname, staff: select [n: {y}.name] from {y} in emp"
        " where {y}.dep = {x}.dname and {y}.salary_band = 1] from {x} in dept",
    )),
    "orders": (ORDERS_SCHEMA, (
        "select [c: {x}.cust, items: select [i: {y}.item] from {y} in orders"
        " where {y}.cust = {x}.cust] from {x} in orders",
        "select [c: {x}.cust, items: select [i: {y}.item] from {y} in orders"
        " where {y}.cust = {x}.cust] from {x} in orders, {w} in gold"
        " where {w}.cust = {x}.cust",
        "select [c: {x}.cust, items: select [i: {y}.item] from {y} in orders,"
        " {w} in catalog where {y}.cust = {x}.cust and {w}.item = {y}.item]"
        " from {x} in orders",
    )),
}


class Check:
    """One engine call and what its construction promises.

    :ivar op: ``contains`` (``sub ⊑ sup``), ``equiv``
        (``weakly_equivalent(sup, sub)``) or ``classify`` (``sub``
        classified against the views in ``views``).
    :ivar family: the input family, for the oracle and the README.
    :ivar deps: dependency declarations the check is decided under.
    :ivar known_fault: the README's number of a known fault this check
        is built to show, or None.  A wrong answer the fault explains
        counts as failed without making the run incorrect.
    :ivar kin: for ``classify``, the views that ``sub`` or a view it
        restricts was made from by restriction (they share a base).
    """

    __slots__ = ("op", "family", "schema", "sup", "sub", "views", "deps",
                 "expect", "timeout_s", "known_fault", "kin")

    def __init__(self, op, family, schema, sup, sub, expect=None, views=(),
                 deps=(), timeout_s=None, known_fault=None, kin=()):
        self.op = op
        self.family = family
        self.schema = schema
        self.sup = sup
        self.sub = sub
        self.views = tuple(views)
        self.deps = tuple(deps)
        self.expect = expect
        self.timeout_s = timeout_s
        self.known_fault = known_fault
        self.kin = tuple(kin)

    def key(self):
        return (self.op, self.sup, self.sub, self.views, self.deps,
                self.timeout_s)


# -- generated nested queries -----------------------------------------

class _Level:
    """One select block: generators, equality conditions, one atomic
    head column and at most one nested block.  Variables are
    ``(level, index)`` pairs; conditions are ``(lhs, rhs)`` with ``lhs``
    a ``(var, attr)`` of this level and ``rhs`` either a ``(var, attr)``
    or an integer constant."""

    __slots__ = ("gens", "conds", "head", "inner")

    def __init__(self, gens, conds, head, inner):
        self.gens = gens
        self.conds = conds
        self.head = head
        self.inner = inner

    def copy(self):
        return _Level(list(self.gens), list(self.conds), self.head,
                      None if self.inner is None else self.inner.copy())

    def levels(self):
        level = self
        while level is not None:
            yield level
            level = level.inner


def _generators(query):
    return sum(len(level.gens) for level in query.levels())


def _encodable(query):
    """Whether the program's encoding accepts *query* and it is
    satisfiable: per level, no equality class may join two outer terms
    or constants below the top level (the documented fragment), and no
    class may hold two distinct constants (a constant-empty query)."""
    rep = {}
    for index, level in enumerate(query.levels()):
        parent = {}

        def find(term):
            while term in parent:
                term = parent[term]
            return term

        def term(ref):
            if isinstance(ref, int):
                return ("c", ref)
            return rep.get(ref, ref)

        def rank(t):
            if t[0] == "c":
                return 2
            return 1 if t in outer else 0

        outer = set(rep.values())
        for lhs, rhs in level.conds:
            left, right = find(term(lhs)), find(term(rhs))
            if left == right:
                continue
            if rank(left) == 2 and rank(right) == 2:
                return False
            if rank(left) < rank(right):
                left, right = right, left
            if rank(right) >= 1:
                return False
            parent[right] = left
        for i in range(len(level.gens)):
            for attr in "ab":
                ref = ((index, i), attr)
                rep[ref] = find(ref)
    return True


def _render(level, depth_index, prefix):
    def name(var):
        return "%s%d%s" % (prefix, var[0], "abcdefgh"[var[1]])

    def path(ref):
        return "%s.%s" % (name(ref[0]), ref[1])

    fields = ["v%d: %s" % (depth_index, path(level.head))]
    if level.inner is not None:
        fields.append("n%d: (%s)" % (
            depth_index, _render(level.inner, depth_index + 1, prefix)))
    text = "select [%s] from %s" % (
        ", ".join(fields),
        ", ".join("%s in %s" % (name((depth_index, i)), rel)
                  for i, rel in enumerate(level.gens)),
    )
    if level.conds:
        text += " where " + " and ".join(
            "%s = %s" % (path(lhs), rhs if isinstance(rhs, int) else path(rhs))
            for lhs, rhs in level.conds
        )
    return text


class Generator:
    """All of a workload's inputs, drawn from one ``random.Random``.

    Nested queries range over :data:`GEN_SCHEMA` (``r``, ``s``, and the
    dependency's source ``m``), have depth 2 to 4 and one to three
    generators per level; the head shape depends on the depth only, so
    any two queries of one depth are comparable.

    :param admit: optional predicate on a :class:`Check` whose answer
        the construction leaves open (relaxations, unrelated pairs,
        reversed chase flips, classifications; the fixed scenario
        templates are not screened); a check it rejects is drawn
        again.  The workloads pass ``not Oracle.exposed``.
    """

    def __init__(self, seed, admit=None):
        self.rng = random.Random(seed)
        self.renames = 0
        self.admit = admit

    def _admitted(self, make):
        while True:
            check = make()
            if self.admit is None or self.admit(check):
                return check

    # -- nested queries --------------------------------------------------

    def _prefix(self):
        self.renames += 1
        letters = "xyzuvwpq"
        return letters[self.renames % len(letters)] + "%d" % (
            self.renames // len(letters) % 7)

    def _level(self, level, depth, outer):
        rng = self.rng
        width = 1 + (rng.random() < 0.45) + (level == 0 and rng.random() < 0.2)
        gens = [rng.choice(RELATIONS) for _ in range(width)]
        conds = []
        own = [(level, i) for i in range(width)]
        for i in range(1, width):
            if rng.random() < 0.75:
                conds.append((((level, i), rng.choice("ab")),
                              (rng.choice(own[:i]), rng.choice("ab"))))
        if outer and rng.random() < 0.8:
            conds.append(((rng.choice(own), rng.choice("ab")),
                          (rng.choice(outer), rng.choice("ab"))))
        if rng.random() < 0.25:
            conds.append(((rng.choice(own), rng.choice("ab")),
                          rng.randrange(2)))
        head = (rng.choice(own), rng.choice("ab"))
        inner = None
        if level + 1 < depth:
            inner = self._level(level + 1, depth, outer + own)
        return _Level(gens, conds, head, inner)

    def query(self, depth):
        while True:
            query = self._level(0, depth, [])
            if _encodable(query) and _generators(query) <= MAX_GENERATORS:
                return query

    def text(self, query):
        return _render(query, 0, self._prefix())

    def restrict(self, query):
        """A copy made smaller at one level (a condition or a joined
        generator), so ``restrict(q) ⊑ q`` by monotonicity.

        The added condition or generator refers to the level's own
        variables only."""
        while True:
            out = self._restrict_once(query)
            if _encodable(out):
                return out

    def _restrict_once(self, query):
        rng = self.rng
        out = query.copy()
        levels = list(out.levels())
        index = rng.randrange(len(levels))
        level = levels[index]
        own = [(index, i) for i in range(len(level.gens))]
        choice = rng.random()
        if choice < 0.35:
            level.gens.append(rng.choice(RELATIONS))
            new = (index, len(level.gens) - 1)
            level.conds.append(((new, rng.choice("ab")),
                                (rng.choice(own), rng.choice("ab"))))
        elif choice < 0.65:
            level.conds.append(((rng.choice(own), rng.choice("ab")),
                                rng.randrange(2)))
        else:
            level.conds.append(((rng.choice(own), rng.choice("ab")),
                                (rng.choice(own), rng.choice("ab"))))
        return out

    def with_relation(self, query, rel):
        """A copy whose first top-level generator ranges over *rel*."""
        out = query.copy()
        out.gens[0] = rel
        return out

    # -- families ----------------------------------------------------------

    def generated(self, kind, depth):
        """One generated pair of *kind* (``restrict``, ``relax``,
        ``renamed``, ``reflexive`` or ``unrelated``) and *depth*."""
        if kind in ("relax", "unrelated"):
            return self._admitted(lambda: self._generated(kind, depth))
        return self._generated(kind, depth)

    def _generated(self, kind, depth):
        q = self.query(depth)
        family = "gen_" + kind
        if kind == "restrict":
            return Check("contains", family, GEN_SCHEMA,
                         self.text(q), self.text(self.restrict(q)), True)
        if kind == "relax":
            return Check("contains", family, GEN_SCHEMA,
                         self.text(self.restrict(q)), self.text(q))
        if kind == "renamed":
            return Check("equiv", family, GEN_SCHEMA,
                         self.text(q), self.text(q), True)
        if kind == "reflexive":
            text = self.text(q)
            return Check("contains", family, GEN_SCHEMA, text, text, True)
        other = self.query(self._depth_of(q))
        return Check("contains", family, GEN_SCHEMA,
                     self.text(other), self.text(q))

    def generated_class(self, index):
        """A generated pair of class ``GENERATED[index % 12]``."""
        kind, depth = self.GENERATED[index % len(self.GENERATED)].rsplit(
            "_", 1)
        return self.generated(kind, int(depth))

    def stratified(self, count, views=None, skip=()):
        """*count* checks cycling through :data:`CLASSES` in order (less
        any in *skip*), so any stretch of the list has the same make-up
        whatever the seed.  Classify checks need the catalog *views*."""
        makers = {
            "union": self.union, "chase": self.chase,
            "scenario": self.scenario,
            "classify": lambda: self.classify(views),
        }
        classes = [c for c in self.CLASSES if c not in skip]
        out = []
        while len(out) < count:
            name = classes[len(out) % len(classes)]
            if name in makers:
                out.append(makers[name]())
            else:
                out.append(self.generated_class(self.GENERATED.index(name)))
        return out

    #: The classes :meth:`stratified` cycles through: generated pairs
    #: as ``<kind>_<depth>``, then the other families.
    GENERATED = ("restrict_2", "relax_3", "unrelated_4", "renamed_3",
                 "restrict_3", "relax_2", "unrelated_3", "restrict_4",
                 "unrelated_2", "reflexive_3", "relax_4", "renamed_2")
    CLASSES = GENERATED + ("union", "classify", "chase", "scenario")

    @staticmethod
    def _depth_of(query):
        return sum(1 for _ in query.levels())

    def union(self):
        """``sub`` against a union whose covering branch comes last."""
        rng = self.rng
        q = self.query(self.rng.choice((2, 2, 3, 3, 4)))
        depth = self._depth_of(q)
        others = [self.text(self.query(depth))
                  for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            sub = self.text(q)
            cover = self.text(q)
        else:
            r = self.restrict(q)
            sub = "(%s) union (%s)" % (self.text(r), self.text(q))
            cover = self.text(q)
        sup = " union ".join("(%s)" % t for t in others + [cover])
        return Check("contains", "union_last", GEN_SCHEMA, sup, sub, True)

    def chase(self):
        """A pair over ``m``/``r`` decided under :data:`CHASE_DEP`."""
        return self._admitted(self._chase)

    def _chase(self):
        q = self.with_relation(self.query(self.rng.choice((2, 3))), "r")
        m = self.with_relation(q, "m")
        if self.rng.random() < 0.7:
            return Check("contains", "chase_flip", GEN_SCHEMA,
                         self.text(q), self.text(m), True, deps=(CHASE_DEP,))
        return Check("contains", "chase_reverse", GEN_SCHEMA,
                     self.text(m), self.text(q), deps=(CHASE_DEP,))

    def catalog(self, count):
        """*count* depth-3 view texts: bases and restrictions of them."""
        self._views = []
        self._bases = []  # per view, the index of its base view
        while len(self._views) < count:
            base = self.query(3)
            self._bases.append(len(self._views))
            self._views.append(base)
            if len(self._views) < count:
                self._bases.append(self._bases[-1])
                self._views.append(self.restrict(base))
        return tuple(self.text(view) for view in self._views)

    def classify(self, views):
        """A depth-3 query to label against the catalog *views*: half
        the time a restriction of a view, so labels other than
        ``irrelevant`` occur."""
        return self._admitted(lambda: self._classify(views))

    def _classify(self, views):
        rng = self.rng
        kin = ()
        if rng.random() < 0.5:
            index = rng.randrange(len(self._views))
            query = self.restrict(self._views[index])
            kin = [view for view, base in zip(views, self._bases)
                   if base == self._bases[index]]
        else:
            query = self.query(3)
        return Check("classify", "classify", GEN_SCHEMA, None,
                     self.text(query), views=views, kin=kin)

    def scenario(self):
        """Two renamed scenario queries of one scenario, either order."""
        rng = self.rng
        name = rng.choice(sorted(SCENARIOS))
        schema, templates = SCENARIOS[name]
        i = rng.randrange(len(templates))
        j = rng.randrange(len(templates))
        sup = self._rename(templates[i])
        sub = self._rename(templates[j])
        if i == j:
            return Check("equiv", "scenario_renamed", schema, sup, sub, True)
        return Check("contains", "scenario_pair", schema, sup, sub)

    def _rename(self, template):
        p = self._prefix()
        return template.format(x=p + "x", y=p + "y", w=p + "w")

    def pigeonhole(self, n, pad):
        """K_n symmetric clique (sub) against a K_{n+1} tournament
        (sup): no homomorphism maps n+1 mutually adjacent vertices
        into n, so the check is False.  *pad* adds one edge from
        vertex 0 to the constant *pad* on both sides, which leaves the
        verdict and the search alone but keeps every instance distinct
        from the last one in the store."""
        p = self._prefix()
        return Check("contains", "pigeonhole_k%d" % n, PIGEON_SCHEMA,
                     _tournament(n + 1, p + "t", pad),
                     _clique(n, p + "c", pad), False)


#: Pairs of known fault 3 (README): each ``sub ⊑ sup`` holds, because
#: the nested generator ``{z}`` of ``sup`` is always witnessed by the
#: outer generator ``{p}``; today's engine answers False.
REDUNDANT_CORRELATED = (
    ("select [v0: {p}.a, n0: (select [v1: {y}.a] from {y} in r, {z} in s"
     " where {z}.a = {p}.a)] from {p} in s",
     "select [v0: {p}.a, n0: (select [v1: {y}.a] from {y} in r)]"
     " from {p} in s"),
    ("select [v0: {p}.a, n0: (select [v1: {y}.a, n1: (select [v2: {t}.a]"
     " from {t} in s, {z} in r where {z}.a = {y}.a)] from {y} in r)]"
     " from {p} in r",
     "select [v0: {p}.a, n0: (select [v1: {y}.a, n1: (select [v2: {t}.a]"
     " from {t} in s)] from {y} in r)] from {p} in r"),
)


def redundant_correlated(index):
    """The fixed pairs of known fault 3, renamed by *index* only (never
    by the seed), as contains checks whose construction answer is True."""
    names = {k: "f%d%s" % (index, k) for k in "pyzt"}
    return [Check("contains", "redundant_correlated", GEN_SCHEMA,
                  sup.format(**names), sub.format(**names), True,
                  known_fault=3)
            for sup, sub in REDUNDANT_CORRELATED]


def _edge_query(vertex_of, edges, prefix, pad):
    gens, conds = [], []
    for i, j in edges:
        var = "%s%d_%d" % (prefix, i, j)
        gens.append("%s in e" % var)
        for attr, end in (("a", i), ("b", j)):
            rep = vertex_of(end)
            if rep != "%s.%s" % (var, attr):
                conds.append("%s.%s = %s" % (var, attr, rep))
    gens.append("%sp in e" % prefix)
    conds.append("%sp.a = %s" % (prefix, vertex_of(0)))
    conds.append("%sp.b = %d" % (prefix, pad))
    return "select [v: %s] from %s where %s" % (
        vertex_of(0), ", ".join(gens), " and ".join(conds))


def _clique(n, prefix, pad):
    def vertex_of(i):
        return "%s%d_%d.a" % (prefix, i, 1 if i == 0 else 0)

    edges = [(i, j) for i in range(n) for j in range(n) if i != j]
    return _edge_query(vertex_of, edges, prefix, pad)


def _tournament(m, prefix, pad):
    def vertex_of(i):
        if i < m - 1:
            return "%s%d_%d.a" % (prefix, i, i + 1)
        return "%s0_%d.b" % (prefix, i)

    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    return _edge_query(vertex_of, edges, prefix, pad)
