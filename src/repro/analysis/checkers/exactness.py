"""Exactness rules: the flow core computes in exact integer arithmetic.

Capacities are Python ints (or the ``math.inf`` sentinel, which compares
exactly); the only sanctioned float is the final result snap that reports
the exact total in the resilience value format.  Any float literal, true
division, tolerance comparison, or ``float()`` coercion inside
``repro/flow/`` is therefore either a bug or one of the handful of
documented formatting sites — which carry pragmas spelling out why they
cannot perturb the arithmetic.
"""

from __future__ import annotations

import ast

from ..core import Checker, ModuleContext


class ExactnessChecker(Checker):
    name = "exactness"
    scope = ("repro/flow/",)
    rules = {
        "exact-float-literal": (
            "float literal in the exact-arithmetic flow core"
        ),
        "exact-div": (
            "true division in the flow core; use // for exact arithmetic"
        ),
        "exact-isclose": (
            "tolerance comparison in the flow core; exact values compare with =="
        ),
        "exact-float-cast": (
            "float() coercion in the flow core outside the sanctioned "
            "result-formatting sites"
        ),
    }

    def visit_Constant(self, node: ast.Constant, module: ModuleContext) -> None:
        if isinstance(node.value, float):
            module.report(
                "exact-float-literal", node, f"float literal {node.value!r}"
            )

    def visit_BinOp(self, node: ast.BinOp, module: ModuleContext) -> None:
        if isinstance(node.op, ast.Div):
            module.report("exact-div", node, "true division (/) yields a float")

    def visit_AugAssign(self, node: ast.AugAssign, module: ModuleContext) -> None:
        if isinstance(node.op, ast.Div):
            module.report("exact-div", node, "/= yields a float")

    def visit_Call(self, node: ast.Call, module: ModuleContext) -> None:
        resolved = module.resolve(node.func)
        if resolved == "math.isclose":
            module.report("exact-isclose", node, "math.isclose() comparison")
        elif resolved == "float":
            module.report("exact-float-cast", node, "float() coercion")
