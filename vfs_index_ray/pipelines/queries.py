"""The driver's query registry (SURVEY §2 coverage): every named
pipeline over the testdata tables with its DuckDB oracle SQL.

Each topic module registers its queries where they are defined, with
``@query(sql)`` (see ``common.py``); importing the modules fills the one
registry that ``__ray_entry__.queries()`` and ``oracle_sql()`` read.
"""

from __future__ import annotations

from . import analytics, events, index, text, tpch, vector  # noqa: F401
from .common import REGISTRY

QUERIES = REGISTRY.fns
ORACLE_SQL = REGISTRY.sql
