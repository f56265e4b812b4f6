"""The public API is what the package itself uses.

Every name exported by the five modules' `__all__` lists must have a caller
in the package source, so that no public helper exists only for the tests.
"""

import ast
import types
from pathlib import Path

import stokeslet_surfaces as ss
from stokeslet_surfaces import geometry, kernel, reference, solver, studies

MODULES = (geometry, kernel, reference, solver, studies)
ERRORS = {
    "StokesletSurfacesError",
    "FloatingFloorError",
    "DegenerateTriangleError",
    "SingularSystemError",
    "MeshFormatError",
}
# public without a caller in the package: acceptance criteria 1 and 2 check
# the closed-form kernel against quadrature through these two functions
PINNED_BY_ACCEPTANCE = {"t_table", "triangle_velocity"}


def _exported():
    return {name for module in MODULES for name in module.__all__}


def test_top_level_names_are_the_module_exports():
    public = {
        name for name in dir(ss)
        if not name.startswith("_")
        and not isinstance(getattr(ss, name), types.ModuleType)
    }
    assert public == _exported() | ERRORS


def _code_names(path):
    """Names the code of a source file reads, as variables or attributes.

    Assigned names, the name a `def` or `class` statement binds, imports,
    strings (so `__all__` entries and docstrings) and comments are not
    among them.
    """
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load)
    }


def test_every_export_has_a_caller_in_the_package():
    package = Path(ss.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":  # re-exports are not callers
            used |= _code_names(path)
    assert sorted(_exported() - used - PINNED_BY_ACCEPTANCE) == []
