"""Query-expression parser + planner (reference M6/M7).

The reference parses ``expr (&& expr)*`` with
``expr := col op value | col.search("v")``, ops ``== <= < >= >``
(PEG grammar expr/expr.peg:8-31, API expr/qexpr.go:24-37), then rewrites
per column type: numeric → uint64 key + range op, string → trigram keys
(search_cond.go:626-651, 676-703).

Here: a small recursive-descent parser producing ``Plan`` dataclasses,
executed as (a) index lookups for text predicates (eq and .search), and
(b) Parquet predicate-pushdown reads for numeric predicates — the new
engine's "numeric index" is the row-group statistics of the column
itself. The AND of all predicates is a doc-id intersection
(search_finder.go:108-193 analog).

Deliberate divergence from the reference (documented, SURVEY §7.6): the
reference maps string ``>`` to ``>=`` (StringOp search_cond.go:793-799)
and ``Count`` returns only the last term's count
(search_finder.go:325-332) — both bugs we do not replicate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq

OPS = ("==", "<=", ">=", "<", ">")
# cap on AND groups after DNF distribution: (a||b)&&(c||d)&&... doubles
# the group count per clause, and each group runs its own index lookups
MAX_DNF_GROUPS = 512


@dataclass
class Predicate:
    column: str
    op: str                 # one of OPS, "search", "phrase" or "near"
    value: str | int | float
    negated: bool = False   # `!expr`: AND-NOT within its group
    arg: int | None = None  # near window (op == "near" only)


@dataclass
class Plan:
    """Parsed expression in DNF: ``groups`` is the OR of AND-groups
    (``a && b || c`` → [[a, b], [c]]); ``predicates`` stays the flat
    list for callers that only need the mentioned predicates (single
    conjunction == the common case == one group)."""
    predicates: list[Predicate] = field(default_factory=list)
    groups: list[list[Predicate]] = field(default_factory=list)


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<and>&&) |
        (?P<or>\|\|) |
        (?P<lp>\() |
        (?P<rp>\)) |
        (?P<neg>!) |
        (?P<search>(?P<scol>\w+)\.search\(\s*"(?P<sval>[^"]*)"\s*\)) |
        (?P<phrase>(?P<pcol>\w+)\.phrase\(\s*"(?P<pval>[^"]*)"\s*\)) |
        (?P<near>(?P<ncol>\w+)\.near\(\s*"(?P<nval>[^"]*)"\s*,\s*
            (?P<nwin>\d+)\s*\)) |
        (?P<cmp>(?P<col>\w+)\s*(?P<op>==|<=|>=|<|>)\s*
            (?P<val>"[^"]*"|[^\s()&|!]+))
    )""", re.VERBOSE)


def _lex(q: str) -> list[tuple[str, object]]:
    toks: list[tuple[str, object]] = []
    pos = 0
    while pos < len(q):
        m = _TOKEN_RE.match(q, pos)
        if not m:
            if q[pos:].strip() == "":
                break
            raise ValueError(f"parse error at {q[pos:]!r}")
        pos = m.end()
        for kind in ("and", "or", "lp", "rp", "neg"):
            if m.group(kind):
                toks.append((kind, None))
                break
        else:
            if m.group("search"):
                toks.append(("pred", Predicate(m.group("scol"),
                                               "search",
                                               m.group("sval"))))
            elif m.group("phrase"):
                toks.append(("pred", Predicate(m.group("pcol"),
                                               "phrase",
                                               m.group("pval"))))
            elif m.group("near"):
                toks.append(("pred", Predicate(
                    m.group("ncol"), "near", m.group("nval"),
                    arg=int(m.group("nwin")))))
            else:
                val: str | int | float = m.group("val")
                if val.startswith('"'):
                    val = val[1:-1]
                else:
                    try:
                        val = int(val)
                    except ValueError:
                        try:
                            val = float(val)
                        except ValueError:
                            pass
                toks.append(("pred", Predicate(m.group("col"),
                                               m.group("op"), val)))
    return toks


def parse(q: str) -> Plan:
    """Parse the full boolean grammar
    ``orexpr := andexpr (|| andexpr)*``,
    ``andexpr := unary (&& unary)*``,
    ``unary := ! unary | ( orexpr ) | predicate``
    into a DNF Plan (negations pushed to the leaves by De Morgan, AND
    distributed over OR).  Raises ValueError on junk.  The reference
    grammar is AND-only (expr/expr.peg:8-31); ``||``, ``!`` and
    parenthesized grouping are documented extensions (SURVEY §7.6) —
    all three lower to the same sorted-doc-id merges.  A group whose
    predicates are ALL negated is rejected at execution (an AND-NOT
    needs a positive side)."""
    toks = _lex(q)
    if not toks:
        plan = Plan()
        plan.groups.append([])
        return plan
    pos = 0

    def peek():
        return toks[pos][0] if pos < len(toks) else None

    def orexpr():
        nonlocal pos
        node = andexpr()
        while peek() == "or":
            pos += 1
            node = ("or", [node, andexpr()])
        return node

    def andexpr():
        nonlocal pos
        node = unary()
        while peek() == "and":
            pos += 1
            node = ("and", [node, unary()])
        return node

    def unary():
        nonlocal pos
        k = peek()
        if k == "neg":
            pos += 1
            return ("not", unary())
        if k == "lp":
            pos += 1
            node = orexpr()
            if peek() != "rp":
                raise ValueError("missing )")
            pos += 1
            return node
        if k == "pred":
            p = toks[pos][1]
            pos += 1
            return ("pred", p)
        raise ValueError(f"expected expression, got {k or 'end'}")

    ast = orexpr()
    if pos != len(toks):
        raise ValueError(f"unexpected {toks[pos][0]!r} after expression")

    def nnf(node, neg: bool):
        kind = node[0]
        if kind == "pred":
            p: Predicate = node[1]
            return ("pred", Predicate(p.column, p.op, p.value,
                                      negated=p.negated ^ neg,
                                      arg=p.arg))
        if kind == "not":
            return nnf(node[1], not neg)
        kids = [nnf(c, neg) for c in node[1]]
        if neg:                               # De Morgan
            kind = "or" if kind == "and" else "and"
        return (kind, kids)

    def bounded(n: int) -> None:
        if n > MAX_DNF_GROUPS:
            raise ValueError(
                f"expression expands to more than {MAX_DNF_GROUPS} AND "
                "groups in disjunctive normal form")

    def dnf(node) -> list[list[Predicate]]:
        kind = node[0]
        if kind == "pred":
            return [[node[1]]]
        if kind == "or":
            out: list[list[Predicate]] = []
            for c in node[1]:
                out.extend(dnf(c))
                bounded(len(out))
            return out
        groups: list[list[Predicate]] = [[]]
        for c in node[1]:                     # and: distribute
            sub = dnf(c)
            bounded(len(groups) * len(sub))   # before building them
            groups = [g + h for g in groups for h in sub]
        return groups

    plan = Plan()
    plan.groups = dnf(nnf(ast, False))
    plan.predicates = [p for g in plan.groups for p in g]
    return plan


class QueryExecutor:
    """Executes a Plan against an index + corpus parquet.

    Text predicates (``search`` or ``==`` on the indexed text column) use
    the inverted index; everything else is a vectorized pushdown filter on
    the corpus. Results: ascending doc ids (deterministic).
    """

    def __init__(self, engine, corpus_files, text_col: str = "text",
                 id_col: str = "doc_id"):
        self.engine = engine
        self.corpus_files = corpus_files
        self.text_col = text_col
        self.id_col = id_col

    def _numeric_docs(self, preds: list[Predicate]) -> np.ndarray:
        expr = None
        for p in preds:
            f = pc.field(p.column)
            e = {"==": f == p.value, "<=": f <= p.value, "<": f < p.value,
                 ">=": f >= p.value, ">": f > p.value}[p.op]
            expr = e if expr is None else (expr & e)
        tbl = pq.read_table(self.corpus_files, columns=[self.id_col],
                            filters=expr)
        ids = tbl[self.id_col].to_numpy(zero_copy_only=False
                                        ).astype(np.uint64)
        return np.sort(ids)

    def _string_range_docs(self, p: Predicate) -> np.ndarray:
        """Range op on the indexed text column → key-space range scan
        (reference J6 string semantics, index_file.go:1208-1422): the
        bound string's first trigram key is the scan bound; packed-key
        order == lexicographic 3-rune order, so e.g. ``col < "abc"``
        returns docs containing any trigram below "abc". Requires a
        trigram-mode index. Divergence documented in the module
        docstring: the reference maps string ``>`` to ``>=`` — we keep
        strict semantics."""
        if self.engine.mode != "trigram":
            raise ValueError(
                f"string range {p.op!r} on {p.column!r} requires a "
                "trigram-mode index (word-mode keys are hashed — "
                "their order is meaningless)")
        from .tokenizer import pack_trigram
        keys = pack_trigram(str(p.value))
        if not keys:  # <3 runes: no extractable key → no matches
            return np.empty(0, np.uint64)
        key = keys[0]
        lo = hi = None
        if p.op == "<":
            if key == 0:  # key-1 would wrap uint64 → full-keyspace scan
                return np.empty(0, np.uint64)
            hi = key - 1
        elif p.op == "<=":
            hi = key
        elif p.op == ">":
            if key == (1 << 64) - 1:  # key+1 would wrap to 0
                return np.empty(0, np.uint64)
            lo = key + 1
        elif p.op == ">=":
            lo = key
        return self.engine.term_range_docs(lo, hi)

    def _execute_group(self, preds: list[Predicate]) -> np.ndarray:
        """One AND-group: intersection of its positive predicates' doc
        sets, minus each negated predicate's set (AND-NOT). A group must
        contain at least one positive predicate — a top-level NOT would
        enumerate the doc universe, which no index path should do."""
        pos = [p for p in preds if not p.negated]
        neg = [p for p in preds if p.negated]
        if neg and not pos:
            raise ValueError(
                "! needs at least one positive predicate in its group "
                "(a pure NOT would scan the whole doc universe)")
        text_preds = [p for p in pos
                      if p.op == "search" or
                      (p.op == "==" and p.column == self.text_col)]
        phrase_preds = [p for p in pos if p.op in ("phrase", "near")]
        range_preds = [p for p in pos
                       if p.column == self.text_col and p.op in
                       ("<", "<=", ">", ">=") and isinstance(p.value, str)]
        other = [p for p in pos
                 if p not in text_preds and p not in phrase_preds
                 and p not in range_preds]
        needs_engine = text_preds or phrase_preds or range_preds or any(
            p.op in ("search", "phrase") or p.column == self.text_col
            for p in neg)
        if needs_engine and self.engine is None:
            raise ValueError("expression has text predicates but this "
                             "executor was built without an index engine")
        doc_sets = []
        for p in text_preds:
            doc_sets.append(self.engine.match(str(p.value)))
        for p in phrase_preds:
            # exact adjacency / windowed proximity via the positional
            # index; ascending ids
            doc_sets.append(self._positional_docs(p))
        for p in range_preds:
            doc_sets.append(self._string_range_docs(p))
        if other:
            doc_sets.append(self._numeric_docs(other))
        if not doc_sets:
            return np.empty(0, np.uint64)
        from .search import sorted_intersect
        out = doc_sets[0]
        for s in doc_sets[1:]:
            out = sorted_intersect(out, s)
        for p in neg:
            if len(out) == 0:
                break
            out = np.setdiff1d(out, self._pred_docs(p),
                               assume_unique=True)
        return out

    def _positional_docs(self, p: Predicate) -> np.ndarray:
        """Doc set of a positional predicate (phrase adjacency or
        windowed proximity) — ascending uint64 ids."""
        if p.op == "near":
            docs = self.engine.proximity_match(str(p.value),
                                               int(p.arg))
        else:
            docs = self.engine.phrase_match_positional(str(p.value))
        return np.sort(np.asarray(docs).astype(np.uint64))

    def _pred_docs(self, p: Predicate) -> np.ndarray:
        """Doc set of one predicate (used for negations)."""
        if p.op == "search" or (p.op == "==" and p.column == self.text_col):
            return self.engine.match(str(p.value))
        if p.op in ("phrase", "near"):
            return self._positional_docs(p)
        if (p.column == self.text_col and p.op in ("<", "<=", ">", ">=")
                and isinstance(p.value, str)):
            return self._string_range_docs(p)
        return self._numeric_docs([p])

    def execute(self, q: str, limit: int | None = None) -> np.ndarray:
        from .search import sorted_union
        plan = parse(q)
        outs = [self._execute_group(g) for g in plan.groups]
        if len(outs) == 1:
            out = outs[0]
        else:
            # OR = sorted union of the groups' ascending doc-id arrays
            out = sorted_union(outs)
        if limit is not None:
            out = out[:limit]  # ascending-doc-id order, deterministic
        return out

    def ranked(self, q: str, k: int = 10):
        """Filtered search: docs satisfying the whole AND expression,
        RANKED by BM25 over the expression's text predicates (the
        reference's Select + Nears composition, with BM25 per
        north_rule). Global corpus statistics (N, avgdl, df) — the
        filter narrows candidates, not the model. Exact scores via the
        engine's point probes (``codec.probe``, a binary search of each
        term's docs stream); ties (score desc, doc_id asc).
        Returns (doc_ids, scores)."""
        import numpy as np

        from .search import SearchEngine
        plan = parse(q)
        # negated text predicates exclude docs (via execute) but must
        # not contribute BM25 mass to the surviving candidates
        text_qs = [str(p.value) for p in plan.predicates
                   if not p.negated and
                   (p.op == "search" or
                    (p.op == "==" and p.column == self.text_col))]
        docs = self.execute(q)
        if len(docs) == 0 or not text_qs:
            return docs, np.zeros(len(docs), np.float64)
        tids = sorted({t for tq in text_qs
                       for t in self.engine.query_term_ids(tq)})
        loaded = self.engine.load_terms(tids)
        tids = [t for t in tids if loaded[t].df > 0]
        targets = np.sort(docs)
        scores = self.engine._score_targets(tids, loaded, targets)
        return SearchEngine._topk(targets, scores, k)

    def count(self, q: str) -> int:
        return int(len(self.execute(q)))

    def first(self, q: str):
        docs = self.execute(q, limit=1)
        return None if len(docs) == 0 else int(docs[0])

    def last(self, q: str):
        """Last match in key order (reference O6, index_file.go:539-618)."""
        docs = self.execute(q)
        return None if len(docs) == 0 else int(docs[-1])

    def nearest(self, column: str, value: float):
        """Nearest-key lookup (reference J7, FindNearByKey
        index_file.go:1461-1534): the row whose ``column`` is closest to
        ``value``; ties break toward the smaller column value, then
        smaller doc id — deterministic.

        Distributed: each batch reduces to its single local best row
        (map_batches), the driver merges ≤1 row per block — the column is
        never read whole to the driver."""
        import pyarrow as pa
        import ray.data

        id_col = self.id_col
        target = float(value)

        def local_best(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return t
            vals = t[column].to_numpy(zero_copy_only=False
                                      ).astype(np.float64)
            ids = t[id_col].to_numpy(zero_copy_only=False)
            dist = np.abs(vals - target)
            i = int(np.lexsort((ids, vals, dist))[0])
            return t.slice(i, 1)

        ds = ray.data.read_parquet(self.corpus_files,
                                   columns=[id_col, column])
        rows = ds.map_batches(local_best,
                              batch_format="pyarrow").take_all()
        if not rows:
            return None
        vals = np.array([r[column] for r in rows], np.float64)
        ids = np.array([r[id_col] for r in rows], np.int64)
        dist = np.abs(vals - target)
        i = int(np.lexsort((ids, vals, dist))[0])
        return {"doc_id": int(ids[i]), column: vals[i].item(),
                "distance": float(dist[i])}
