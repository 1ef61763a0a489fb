"""Static checks on the package source."""

import ast
import importlib.util
from pathlib import Path

import connfp

SRC = Path(connfp.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


def test_unused_import_is_detected():
    assert unused_imports("import os\nfrom a import b as c, d\nfrom __future__ import x\nd()") == [
        "os", "c"
    ]


def test_every_imported_name_is_read():
    # __init__.py imports only to re-export
    unused = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path.read_text("utf-8")))
    }
    assert unused == {}


def load_src_lines():
    """scripts/src_lines.py, imported as a module (scripts/ is no package)."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "src_lines.py"
    spec = importlib.util.spec_from_file_location("src_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_counts_each_line_by_its_first_kind(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Module docstring\n'             # 1 docstring
        'over two lines."""\n'              # 2 docstring
        "\n"                                # 3 blank
        "import os  # trailing comment\n"   # 4 code
        "\n"                                # 5 blank
        "# a comment line\n"                # 6 comment
        "\n"                                # 7 blank
        "\n"                                # 8 blank
        "def f():\n"                        # 9 code
        '    """One-line docstring."""\n'   # 10 docstring
        '    x = """an assigned\n'          # 11 code
        '    string"""\n'                   # 12 code
        "    return x\n",                   # 13 code
        encoding="utf-8",
    )
    counts = load_src_lines().count(source)
    assert counts == {"code": 5, "docstring": 3, "comment": 1, "blank": 4}


def test_package_stays_under_the_line_ceiling():
    src_lines = load_src_lines()
    total = sum(sum(src_lines.count(path).values()) for path in SRC.glob("*.py"))
    assert total <= src_lines.CEILING


def test_src_lines_prints_the_headroom_under_the_ceiling(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    src_lines = load_src_lines()
    assert src_lines.main(["src_lines.py", str(tmp_path)]) == 0
    ceiling = src_lines.CEILING
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"headroom: {ceiling - 3} lines under the ceiling of {ceiling}"


def file_writes(source: str) -> list[str]:
    """What source does that writes or replaces a file, or hashes bytes:
    imports of hashlib or os, os.replace, open in a writing mode (or a mode
    not written out) and .write_bytes / .write_text calls, one "line: what"
    each. container.write_bytes, imported by name, is a plain call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [(node.module or "").split(".")[0]]
        else:
            names = []
        found += [f"{node.lineno}: import {name}" for name in names if name in ("hashlib", "os")]
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_bytes", "write_text") and isinstance(func, ast.Attribute):
            found.append(f"{node.lineno}: {name}")
        elif name == "replace" and isinstance(func, ast.Attribute) and (
            isinstance(func.value, ast.Name) and func.value.id == "os"
        ):
            found.append(f"{node.lineno}: os.replace")
        elif name == "open":
            # open(file, mode) or path.open(mode)
            position = 1 if isinstance(func, ast.Name) else 0
            modes = [k.value for k in node.keywords if k.arg == "mode"]
            modes += node.args[position : position + 1]
            mode = modes[0] if modes else ast.Constant("r")
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or any(
                c in mode.value for c in "wax+"
            ):
                found.append(f"{node.lineno}: open for writing")
    return found


def test_file_write_is_detected():
    source = (
        "import os.path\nfrom hashlib import sha256\nopen(p)\nopen(p, 'rb')\n"
        "open(p, 'w')\nopen(p, mode='ab')\nopen(p, m)\nq.open('r+')\nq.open()\n"
        "os.replace(a, b)\ns.replace(a, b)\nq.write_text(t)\nq.write_bytes(b)\n"
        "write_bytes(p, [b])\n"
    )
    assert file_writes(source) == [
        "1: import os", "2: import hashlib", "5: open for writing", "6: open for writing",
        "7: open for writing", "8: open for writing", "10: os.replace", "12: write_text",
        "13: write_bytes",
    ]


def test_only_container_writes_files():
    # every output file goes through container.write_bytes, which alone
    # replaces files and hashes what it writes
    writes = {
        path.name: found
        for path in sorted(SRC.glob("*.py"))
        if path.name != "container.py" and (found := file_writes(path.read_text("utf-8")))
    }
    assert writes == {}


def unread_definitions(package: Path, allowed=()) -> list[str]:
    """Module-level functions and classes of package that no module of it
    reads and __init__.py does not re-export, as "module.name"."""
    trees = {path.name: ast.parse(path.read_text("utf-8")) for path in sorted(package.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    exported = {
        a.asname or a.name
        for node in ast.walk(trees["__init__.py"])
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    }
    defined = [
        (path_name, node.name)
        for path_name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    return [
        f"{module[:-3]}.{name}"
        for module, name in defined
        if name not in read | exported and name not in allowed
    ]


def test_unread_definition_is_detected(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import shown\n", encoding="utf-8")
    (tmp_path / "a.py").write_text(
        "def shown(): pass\ndef used(): pass\ndef orphan(): pass\n"
        "class Orphan: pass\nx = used\n",
        encoding="utf-8",
    )
    assert unread_definitions(tmp_path) == ["a.orphan", "a.Orphan"]
    assert unread_definitions(tmp_path, allowed={"orphan", "Orphan"}) == []


def test_every_definition_is_read_or_exported():
    # example_config is the entry point for a config template (README,
    # perfbench), read only from outside the package. Nothing reads
    # cli.load_cohort, a bare StoredCohort(directory), but perfbench's tracer
    # patches it by name. Deleting it waits on the benchmark change of
    # ROADMAP item 3.
    assert unread_definitions(SRC, allowed={"example_config", "load_cohort"}) == []


def package_imports(source: str) -> set[str]:
    """The connfp modules source imports, by relative imports (from .x,
    from . import x) or by absolute connfp.x ones."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("connfp."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("connfp.")}
    return found


def test_package_import_is_detected():
    source = (
        "import numpy\nimport connfp.cli\nfrom connfp.config import x\nfrom .synth import y\n"
        "from . import container\nfrom numpy import linalg\n"
    )
    assert package_imports(source) == {"cli", "config", "synth", "container"}


def test_the_numerical_modules_sit_below_the_command_line():
    # the pipeline modules know nothing of configs, containers or commands,
    # and fingerprint reads a cohort only through the four members
    # session_connectomes names, never through synth
    lower = ("connectome", "convae", "sparse", "synth", "fingerprint")
    imports = {name: package_imports((SRC / f"{name}.py").read_text("utf-8")) for name in lower}
    assert {name: found & {"cli", "config", "container"} for name, found in imports.items()} == {
        name: set() for name in lower
    }
    assert "synth" not in imports["fingerprint"]
