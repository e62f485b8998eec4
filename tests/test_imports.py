"""No module of the package imports a name it never uses, no public name serves only tests,
no name is kept for a tracer wrapper that no longer exists, and no solver knob goes unread or
is set only by tests.

A stdlib stand-in for a linter's unused-import check: every imported name
must be referenced in the module, listed in its ``__all__``, or sit on a
line marked ``# noqa: F401``. Every name in a module's ``__all__`` must be
loaded somewhere in the package, so a public function whose only caller is
its own test fails here. A ``# noqa: F401`` import and an allowed public name
without a caller must be one that ``perfbench/tracing.py`` patches by name.
Likewise every ``SolverConfig`` field must be read
as an attribute somewhere in the package outside the class itself, and every
``SolverConfig`` and ``ExperimentConfig`` field set by a keyword somewhere
outside the tests, or be allowed by name with its reason.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "apdpro"
TRACING = ROOT / "perfbench" / "tracing.py"


def _unused_imports(path):
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(
        name for name, line in imported.items()
        if name not in used and name not in exported and "# noqa: F401" not in lines[line - 1]
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_the_guard_sees_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os\nimport sys\nfrom math import pi, tau\nfrom json import dumps  # noqa: F401\n"
        "__all__ = ['tau']\nprint(sys.argv)\n",
        encoding="utf-8",
    )
    assert _unused_imports(probe) == ["os", "pi"]


# module.name -> why it stays public without a caller in the package
UNLOADED_EXPORTS_ALLOWED = {
    "linalg.power_iteration": "kept only for perfbench/tracing.py, ROADMAP item 1",
    "problem.jacobian_operator_norm": "kept only for perfbench/tracing.py, ROADMAP item 1",
}


def _unloaded_exports(paths):
    """``module.name`` for each name in a module's ``__all__`` that no ``Name`` or ``Attribute``
    load in any of ``paths`` reads. Loads match by name alone; imports, definitions and the
    ``__all__`` strings are not loads. The package root's ``__all__`` is exempt."""
    exported, loaded = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
        if path.name == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                exported += [(path.stem, name) for name in ast.literal_eval(node.value)]
    return sorted(f"{module}.{name}" for module, name in exported if name not in loaded)


def test_every_public_name_has_a_caller_in_the_package():
    assert _unloaded_exports(sorted(SRC.glob("*.py"))) == sorted(UNLOADED_EXPORTS_ALLOWED)


def test_the_guard_sees_a_public_name_without_a_caller(tmp_path):
    (tmp_path / "__init__.py").write_text("__all__ = ['unused_at_root']\n", encoding="utf-8")
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import math\nfrom .other import helper\n__all__ = ['called', 'attribute', 'orphan', 'helper']\n\n"
        "def called():\n    return math.pi\n\n\ndef attribute():\n    return 1\n\n\n"
        "def orphan():\n    return called() + probe.attribute()\n",
        encoding="utf-8",
    )
    assert _unloaded_exports(sorted(tmp_path.glob("*.py"))) == ["probe.helper", "probe.orphan"]


def _kept_for_no_wrapper(paths, tracing, allowed):
    """What ``paths`` keep for the tracer that its ``installed`` does not patch.

    ``installed`` in ``tracing`` is read as text, not imported: its literal
    (module, "name", wrapper) rows name the patched module attributes. Each
    ``# noqa: F401`` import in ``paths`` must be one of them, as
    ``module.name``; each ``allowed`` entry ``module.name`` must share its
    name with one (the tracer patches the modules that import it).
    """
    tree = ast.parse(tracing.read_text(encoding="utf-8"), filename=str(tracing))
    installed = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "installed")
    patched = {
        f"{row.elts[0].id}.{row.elts[1].value}" for row in ast.walk(installed)
        if isinstance(row, ast.Tuple) and len(row.elts) == 3 and isinstance(row.elts[0], ast.Name)
        and isinstance(row.elts[1], ast.Constant) and isinstance(row.elts[1].value, str)
    }
    stray = set()
    for path in paths:
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source, filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    entry = f"{path.stem}.{alias.asname or alias.name}"
                    if "# noqa: F401" in lines[alias.lineno - 1] and entry not in patched:
                        stray.add(entry)
    names = {entry.split(".")[1] for entry in patched}
    return sorted(stray | {entry for entry in allowed if entry.split(".")[1] not in names})


def test_names_kept_for_the_tracer_are_ones_it_patches():
    """Once the benchmark stops wrapping a name, its ``noqa`` import or allowlist entry fails here."""
    paths = sorted(SRC.glob("*.py"))
    assert any("# noqa: F401" in p.read_text(encoding="utf-8") for p in paths)
    assert _kept_for_no_wrapper(paths, TRACING, UNLOADED_EXPORTS_ALLOWED) == []


def test_the_guard_sees_a_name_kept_for_no_wrapper(tmp_path):
    tracing = tmp_path / "tracing.py"
    tracing.write_text(
        "def installed(tracer):\n    from pkg import probe\n"
        "    patches = [(probe, 'wrapped', tracer.span('probe.wrapped', probe.wrapped)), (probe, 'other')]\n",
        encoding="utf-8",
    )
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .a import wrapped  # noqa: F401\nfrom .b import other  # noqa: F401\nfrom .c import kept\n",
        encoding="utf-8",
    )
    allowed = {"a.wrapped": "", "b.other": ""}
    assert _kept_for_no_wrapper([probe], tracing, allowed) == ["b.other", "probe.other"]


def _unread_fields(paths, class_name):
    """Fields of class ``class_name`` that no attribute load outside its own body reads.

    Reads match by attribute name alone (``x.tau0`` on any object counts),
    so the guard finds the fields that nothing reads at all.
    """
    fields, reads = set(), set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                fields.update(s.target.id for s in node.body if isinstance(s, ast.AnnAssign))
                inside.update(id(n) for n in ast.walk(node))
        reads.update(
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in inside
        )
    return sorted(fields - reads)


def test_every_solver_config_field_is_read():
    assert _unread_fields(sorted(SRC.glob("*.py")), "SolverConfig") == []


def test_the_guard_sees_an_unread_field(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from dataclasses import dataclass\n\n@dataclass\nclass SolverConfig:\n"
        "    used: int = 0\n    probe: int = 0\n\n    def __post_init__(self):\n"
        "        assert self.probe >= 0\n\n\ndef run(cfg):\n    return cfg.used\n",
        encoding="utf-8",
    )
    assert _unread_fields([probe], "SolverConfig") == ["probe"]


def _fields_no_caller_sets(paths, class_name):
    """Fields of class ``class_name`` that no keyword of a ``class_name(...)`` or ``replace(...)``
    call in ``paths`` sets.

    Calls match by the callee's name alone (``replace`` on any object
    counts), and a ``**`` argument sets nothing: the INI loader passes any
    field that way, so only code that names a field counts as its caller.
    """
    fields, set_by_name = set(), set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                fields.update(s.target.id for s in node.body if isinstance(s, ast.AnnAssign))
            elif isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if callee in (class_name, "replace"):
                    set_by_name.update(kw.arg for kw in node.keywords if kw.arg is not None)
    return sorted(fields - set_by_name)


def _config_paths():
    """The non-test code that may set a config field: read as text, so nothing here is imported."""
    return [p for top in ("src", "demos", "perfbench", "tools") for p in sorted((ROOT / top).rglob("*.py"))]


def test_every_solver_config_field_is_set_outside_the_tests():
    """A knob only tests set is a branch no run takes."""
    paths = _config_paths()
    assert SRC / "solvers.py" in paths
    assert _fields_no_caller_sets(paths, "SolverConfig") == []


# ExperimentConfig field -> why it stays though no code outside the tests sets it by name
SET_ONLY_BY_THE_INI_ALLOWED = {
    "variants": "the compare command's list of variants, which only the INI sets",
}


def test_every_experiment_config_field_is_set_outside_the_tests():
    """As for ``SolverConfig``, less the allowlist. ``InstanceSpec`` is left out: the workloads
    set its fields through a dict, which this guard cannot see."""
    paths = _config_paths()
    assert SRC / "bench.py" in paths
    assert _fields_no_caller_sets(paths, "ExperimentConfig") == sorted(SET_ONLY_BY_THE_INI_ALLOWED)


def test_the_guard_sees_a_field_only_tests_set(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import dataclasses\nfrom dataclasses import dataclass\n\n@dataclass\nclass SolverConfig:\n"
        "    named: int = 0\n    replaced: int = 0\n    probe: int = 0\n\n\n"
        "def run(kwargs):\n    cfg = SolverConfig(named=1, **kwargs)\n"
        "    return dataclasses.replace(cfg, replaced=2).probe\n",
        encoding="utf-8",
    )
    assert _fields_no_caller_sets([probe], "SolverConfig") == ["probe"]


def test_importing_the_package_leaves_scipy_optimize_unloaded():
    """Importing scipy.optimize raises peak resident memory by about 16 MB (62 -> 78 MB measured
    after importing every module here), so the prox's multiplier solve is written out rather than
    taken from ``brentq``. A fresh interpreter imports each module and checks."""
    code = ("import sys, apdpro, apdpro.bench, apdpro.cli, apdpro.estimator, apdpro.linalg, apdpro.pagerank, "
            "apdpro.problem, apdpro.prox, apdpro.solvers; print(sorted(m for m in sys.modules "
            "if m == 'scipy.optimize' or m.startswith('scipy.optimize.')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"
