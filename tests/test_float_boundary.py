"""The only floating point stays in axb.

Discrete results are exact, so outside the ax+b quadrature layer the
package may use math only for its integer helpers, plus isfinite for the
CLI's --tol check, and may not import numpy.  The check reads the source
with ast, so it also covers code no test happens to run.
"""

import ast
from pathlib import Path

import quasilab

INTEGER_HELPERS = {"lcm", "gcd", "factorial", "comb", "isqrt"}
MATH_ATTRIBUTES = INTEGER_HELPERS | {"isfinite"}


def _violations(tree: ast.AST) -> list[str]:
    math_names = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top == "numpy":
                    found.append(f"line {node.lineno}: import {alias.name}")
                elif alias.name == "math":
                    math_names.add(alias.asname or "math")
        elif isinstance(node, ast.ImportFrom) and node.module:
            top = node.module.split(".")[0]
            if top == "numpy":
                found.append(f"line {node.lineno}: from {node.module} import")
            elif node.module == "math":
                for alias in node.names:
                    if alias.name not in INTEGER_HELPERS:
                        found.append(f"line {node.lineno}: from math import {alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in math_names
            and node.attr not in MATH_ATTRIBUTES
        ):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_rules_catch_floating_point():
    source = (
        "import math\nimport numpy as np\nfrom math import exp, lcm\n"
        "from numpy.linalg import svd\nimport math as m\n"
        "x = math.isfinite(1.0) and math.gcd(2, 4) and m.log(2)\n"
    )
    assert _violations(ast.parse(source)) == [
        "line 2: import numpy",
        "line 3: from math import exp",
        "line 4: from numpy.linalg import",
        "line 6: m.log",
    ]


def test_only_axb_uses_floating_point():
    package = Path(quasilab.__file__).parent
    sources = sorted(p for p in package.glob("*.py") if p.name != "axb.py")
    assert len(sources) > 5
    for path in sources:
        assert _violations(ast.parse(path.read_text(), str(path))) == [], path.name
