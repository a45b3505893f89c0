"""The package surface: importing it loads nothing, `src/` keeps no
module-level name, method or property that nothing on the run path uses,
each from_json reader builds each record in one place, it raises only
the error types of `errors.py`, and README names what it holds."""

import argparse
import ast
import dataclasses
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "proverloop"


def test_importing_the_package_loads_no_submodule():
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import proverloop; "
        "print(sorted(m for m in sys.modules if m.startswith('proverloop.')))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"


def test_a_demo_run_does_not_import_numpy_ma(tmp_path):
    """numpy.ma costs tens of milliseconds to import; np.quantile pulls it in."""
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
        "from proverloop.fixtures import write_bundled; "
        "from proverloop.pipeline import override_config, parse_config, run_pipeline; "
        "write_bundled('demo'); "
        "run_pipeline(override_config(parse_config('demo/run.cfg'), out_dir='demo/out')); "
        "print('numpy.ma' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, cwd=tmp_path)
    assert done.stdout.strip() == "False"


def test_the_readme_config_table_holds_every_setting_with_its_default():
    """README's "Config file" table has one row for each RunConfig field a
    config key sets, and nothing else besides `fixtures` and `out`; each
    row's default cell, parsed by the field's parse_config parser, is the
    field's default."""
    from proverloop.pipeline import _PARSERS, RunConfig

    table = readme_section("Config file")
    rows = {}
    for line in table.splitlines():
        if line.startswith("| ") and not line.startswith(("| key |", "| ---")):
            keys, default = (cell.strip() for cell in line.split("|")[1:3])
            rows.update((key, default) for key in keys.split(" / "))
    fields = {f.name: f for f in dataclasses.fields(RunConfig)
              if f.name not in ("fixture_dirs", "out_dir")}
    assert sorted(set(rows) - set(fields)) == ["fixtures", "out"]
    assert sorted(set(fields) - set(rows)) == []
    for name, f in fields.items():
        assert _PARSERS[f.type](rows[name]) == f.default, name


def test_the_readme_cli_section_names_every_flag_and_strategy():
    """README's "CLI" section names each flag of each subcommand, and the
    `--strategy {...}` set it writes is the STRATEGIES tuple."""
    from proverloop.cli import build_parser
    from proverloop.database import STRATEGIES

    text = readme_section("CLI")
    [subcommands] = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    flags = {flag for sub in subcommands.choices.values() for action in sub._actions
             if not isinstance(action, argparse._HelpAction) for flag in action.option_strings}
    assert sorted(f for f in flags if not re.search(rf"(?<![\w-]){f}(?![\w-])", text)) == []
    [written] = re.findall(r"--strategy\s+\{([^}]*)\}", text)
    assert tuple(written.split(",")) == STRATEGIES


# Backticked words of README's "Library layout" that name no definition:
# a constant, numpy names and a strategy value.
NOT_DEFINED_IN_SRC = {"None", "bincount", "numpy.ma", "single", "uint8"}


def test_the_readme_library_layout_names_only_what_src_defines():
    """Each backticked identifier of README's "Library layout" section, each
    part of a dotted one, is a module of the package or a name that src/
    binds: a function, class, parameter, variable or attribute."""
    defined = {"proverloop"}
    for module, tree in PACKAGE_TREES.items():
        defined.add(module.removesuffix(".py"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.arg):
                defined.add(node.arg)
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
                defined.add(node.id if isinstance(node, ast.Name) else node.attr)
    named = set(re.findall(r"`([A-Za-z_][\w.]*)`", readme_section("Library layout")))
    assert len(named) > 40
    assert sorted(name for name in named - NOT_DEFINED_IN_SRC
                  if not set(name.split(".")) <= defined) == []


def readme_section(title):
    """The text of README's "## title" section, up to the next heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def definitions(tree):
    """(name, statement) for each module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def methods(tree):
    """(class, name, definition) for each method and property of the
    module's classes, dunders aside."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not (
                        node.name.startswith("__") and node.name.endswith("__")):
                    yield cls.name, node.name, node


def reads(node):
    """How often each name is read under node, as a name or an attribute."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute)))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def unread(found, readers):
    """The labels of the (label, name, definition) triples whose name no
    reader reads outside the definition itself."""
    total = sum((reads(tree) for tree in readers), Counter())
    return [label for label, name, node in found if total[name] <= reads(node)[name]]


PACKAGE_TREES = {path.name: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
BENCHMARK_TREES = [parse(path) for path in sorted((ROOT / "perfbench").glob("*.py"))]


def test_every_module_level_name_is_used_by_the_package_or_the_benchmark():
    found = [(f"{module}:{name}", name, definition)
             for module, tree in PACKAGE_TREES.items()
             for name, definition in definitions(tree)]
    assert unread(found, [*PACKAGE_TREES.values(), *BENCHMARK_TREES]) == []


def test_every_method_and_property_is_used_by_the_package_the_benchmark_or_the_gate():
    """The acceptance gate does not change, so the methods it calls stay
    package surface."""
    found = [(f"{module}:{cls}.{name}", name, definition)
             for module, tree in PACKAGE_TREES.items()
             for cls, name, definition in methods(tree)]
    gate = parse(ROOT / "tests" / "test_acceptance.py")
    assert unread(found, [*PACKAGE_TREES.values(), *BENCHMARK_TREES, gate]) == []


def test_every_imported_name_is_read_by_its_module():
    unread = []
    for path in sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        tree = parse(path)
        reads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                unread.extend(f"{path.relative_to(ROOT)}:{name}"
                              for alias in node.names
                              if (name := alias.asname or alias.name.split(".")[0]) not in reads)
    assert unread == []


def test_every_parameter_is_read_by_its_function():
    """A parameter that its body never reads is dead surface, such as the
    fast-path argument left behind when the fast path goes. Protocol stubs
    have no body, and a name starting with _ is unread on purpose."""
    unread = []
    for module, tree in PACKAGE_TREES.items():
        stubs = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 and any(ast.unparse(base) == "Protocol" for base in cls.bases)
                 for node in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)) or id(fn) in stubs:
                continue
            a = fn.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                      if p is not None and not p.arg.startswith("_")]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            reads = {node.id for stmt in body for node in ast.walk(stmt)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            name = getattr(fn, "name", "<lambda>")
            unread.extend(f"{module}:{fn.lineno}: {name}({p})" for p in params if p not in reads)
    assert unread == []


def owners(tree):
    """The name of the innermost function around each node, by node id."""
    # ast.walk visits outer functions first, so a nested one overwrites
    return {id(node): fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)}


def json_calls(name):
    """'module:function' of each json.<name> call in src/, and of each
    `from json import`, which would hide such a call."""
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        owner = owners(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                callers.append(f"{path.name}: from json import")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == name and isinstance(node.func.value, ast.Name)
                  and node.func.value.id == "json"):
                callers.append(f"{path.name}:{owner.get(id(node), '<module>')}")
    return sorted(callers)


def test_the_importance_pass_has_one_call_site():
    """train_one_epoch runs compute_fisher only when its caller asks, so
    the rule of which task computes importance has one owner."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        owner = owners(tree)
        sites += [f"{path.name}:{owner.get(id(node), '<module>')}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1]
                  == "compute_fisher"]
    assert sites == ["retriever.py:train_one_epoch"]


def test_json_is_encoded_only_by_dump_json():
    """Every JSON document and checkpoint header goes through
    storage.dump_json's one compact encoder."""
    assert json_calls("dumps") == ["storage.py:dump_json"]


def test_json_is_decoded_only_by_parse_json():
    """Every JSON document is parsed by storage.parse_json, which rejects
    lone surrogates and maps bad text to CorruptDocument."""
    assert json_calls("loads") == ["storage.py:parse_json"]


ERROR_CLASSES = {node.name for node in PACKAGE_TREES["errors.py"].body
                 if isinstance(node, ast.ClassDef)}


def test_every_raise_names_a_package_error():
    """A failure the package raises is a ProverloopError, which the CLI
    maps to exit 2, never a builtin exception; a bare raise re-raises."""
    raised = []
    for module, tree in PACKAGE_TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if not (isinstance(exc, ast.Name) and exc.id in ERROR_CLASSES):
                    raised.append(f"{module}:{node.lineno}: {ast.unparse(exc)}")
    assert raised == []


def test_every_error_subclass_is_caught_by_a_caller():
    """A subclass exists only where a caller reacts to it: an except clause
    in src/ or the acceptance gate names it. ProverloopError, CorruptDocument
    and IoFailure name a kind of fault and need no handler of their own."""
    named = {sub.id for tree in PACKAGE_TREES.values() for node in ast.walk(tree)
             if isinstance(node, ast.ExceptHandler) and node.type is not None
             for sub in ast.walk(node.type) if isinstance(sub, ast.Name)}
    gate = parse(ROOT / "tests" / "test_acceptance.py")
    named |= {sub.id for sub in ast.walk(gate) if isinstance(sub, ast.Name)}
    kinds = {"ProverloopError", "CorruptDocument", "IoFailure"}
    assert sorted(ERROR_CLASSES - kinds - named) == []


def test_each_reader_builds_each_record_in_one_place():
    """A from_json reader checks its document in one pass and calls each
    record constructor (a class of src/ that is no error, or cls) once: a
    second call is a second reading path that must agree with the first."""
    records = {node.name for tree in PACKAGE_TREES.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)} - ERROR_CLASSES | {"cls"}
    repeated = []
    for module, tree in PACKAGE_TREES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name.endswith("from_json"):
                calls = Counter(node.func.id for node in ast.walk(fn)
                                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                                and node.func.id in records)
                repeated.extend(f"{module}:{fn.name} calls {name} {n} times"
                                for name, n in sorted(calls.items()) if n > 1)
    assert repeated == []


def test_arrays_are_never_read_or_written_through_numpy_files_or_pickle():
    """Checkpoints describe their arrays once, in the header line: no .npy
    record, whose own header a reader would trust, and no pickle."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Attribute):
                names = [ast.unparse(node)]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name in ("np.lib.format", "np.load", "np.save", "np.fromfile")
                      or name.startswith(("numpy.lib", "pickle"))]
    assert found == []


def test_no_whole_array_reduction_is_a_blas_call():
    """A whole-array np.linalg.norm, np.dot or np.vdot is one BLAS call,
    which OpenBLAS splits by its thread count, so its rounding and the
    checkpoint bytes would depend on the host. A norm along an axis is
    numpy's own loop."""
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                whole = len(node.args) < 3 and all(k.arg != "axis" for k in node.keywords)
                if name in ("np.dot", "np.vdot") or (name == "np.linalg.norm" and whole):
                    calls.append(f"{path.name}:{node.lineno}: {name}")
    assert calls == []
