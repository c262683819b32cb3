"""The package's public names."""

from __future__ import annotations

import lambdacone
from lambdacone import (ConeSeries, ModuleElement, VarSpace, VLAStructure, clear_caches, cone,
                        gauss_decompose, jacobi_check_vla, pseudo, pseudo_space, rings, vla)


def test_every_export_resolves_once():
    names = lambdacone.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(lambdacone, name, None) is not None, name



def _memo_tables():
    return {f"{m.__name__}.{name}": value for m in (rings, cone, pseudo, vla)
            for name, value in vars(m).items()
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == m.__name__}


def test_clear_caches_empties_every_memo_table():
    p = VarSpace(3, ("z",)).from_dense("z", {(4, 2, 0): 3, (1, 1, 4): -2, (0, 0, 3): 5})

    def run():
        # A new structure each time: its own memo would answer a second check.
        vs = pseudo_space(2)
        el = lambda q: ModuleElement(vs, 1, {0: q})
        S = VLAStructure(2, ("L",), {(0, 0): ConeSeries(2, "z", {
            (-1, 0, 1): el(vs.const(2)), (-1, 1, 1): el(vs.var("T", 1)),
            (-1, 1, 2): el(vs.var("T", 2))})})
        report = jacobi_check_vla(S, 1, 1)
        return (report.passed, report.failures, report.records, report.lines()), gauss_decompose(p)

    first = run()
    tables = _memo_tables()
    assert {"lambdacone.cone._laplacian_table", "lambdacone.rings._dense_keys"} <= set(tables)
    assert all(tables[name].cache_info().currsize for name in
               ("lambdacone.cone._laplacian_table", "lambdacone.rings._dense_keys"))
    clear_caches()
    assert {name: fn.cache_info().currsize for name, fn in tables.items()} == dict.fromkeys(tables, 0)
    assert run() == first
