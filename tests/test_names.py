"""Every name that src/riskfed defines is read somewhere: deleting code is
progress when the outputs stay the same, so a name nothing reads goes.

A module-level function, class or constant, or a method that is not a
dunder, counts as read when another part of the package names it in
code (not in a string or a comment, and not only by importing it), when
a perfbench script names it (the benchmark wraps some functions by their
name as a string), or when README.md names it as a public helper. The
README lists the names kept only for the benchmark, and that list must
stay the set the benchmark alone names.

Likewise every field of a dataclass is read as an attribute somewhere,
or is listed in ``UNREAD_FIELDS`` with the reason it stays.

Every name tests/oracles.py defines is read by a test or by another
oracle, and the oracles import no riskfed module.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "riskfed"
ORACLES = ROOT / "tests" / "oracles.py"


def definitions(tree):
    """(qualified name, name, node, whether it is a method) for each name a
    module defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            # a tuple, list or starred target binds each name stored in it
            for name in (n for target in targets for n in ast.walk(target)):
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                    yield name.id, name.id, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name, item, True


def reads(tree):
    """(name, line, whether as an attribute) for each name read in code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True


def src_names():
    """(module.qualified name, name, whether other src code reads it) for
    each non-dunder name that src/riskfed defines."""
    modules = {path: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))}
    uses = [(path, *use) for path, tree in modules.items() for use in reads(tree)]
    for path, tree in modules.items():
        for qualified, name, node, method in definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            read_in_src = any(
                used == name and (attribute or not method)
                and not (where == path and node.lineno <= line <= node.end_lineno)
                for where, used, line, attribute in uses)
            yield f"{path.stem}.{qualified}", name, read_in_src


def named_in(name, text) -> bool:
    return re.search(rf"(?<!\w){re.escape(name)}(?!\w)", text) is not None


def perfbench_text() -> str:
    return "\n".join(path.read_text(encoding="utf-8")
                     for path in sorted((ROOT / "perfbench").glob("*.py")))


def unread_names():
    outside = perfbench_text() + "\n" + (ROOT / "README.md").read_text(encoding="utf-8")
    return [qualified for qualified, name, read_in_src in src_names()
            if not (read_in_src or named_in(name, outside))]


# dataclass fields that neither src nor perfbench reads, with why each stays
UNREAD_FIELDS = {
    "store.TrainPass.q": "the round trace of ROADMAP item 1a will read it",
    "store.TrainPass.losses": "test_store.py compares each client's loss with "
                              "_kernels.client_eval bit for bit",
    "sensitivity.ClientReport.local_loss": "it belongs to the per-client reference "
                                           "path that the benchmark pins (ROADMAP item 2)",
}


def dataclass_fields(tree):
    """(class name, field name) for each field of each @dataclass a module
    defines."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def attribute_reads(tree):
    """The names of the attributes a module reads."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read():
    """A field counts as read when src or a perfbench script reads an
    attribute of its name. The check goes by name, so a field that shares
    its name with another attribute that is read passes."""
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    read = set().union(*map(attribute_reads, trees.values()))
    unread = {f"{path.stem}.{cls}.{name}" for path, tree in trees.items()
              if path.parent == SRC for cls, name in dataclass_fields(tree)
              if name not in read}
    assert unread == set(UNREAD_FIELDS)


def test_every_src_name_is_read():
    assert unread_names() == []


def test_readme_lists_exactly_the_names_kept_for_the_benchmark():
    """README's list of the src names that stay only because a perfbench
    script names them, and that no src code reads, is that set."""
    bench = perfbench_text()
    kept = {qualified for qualified, name, read_in_src in src_names()
            if not read_in_src and named_in(name, bench)}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("These names stay in `src` only because")
    listed = set(re.findall(r"`(\w+\.\w+)`", readme[start:readme.index("\n\n", start)]))
    assert listed == kept


def test_oracles_import_no_riskfed_module():
    """An oracle is written from its definition, not from the code it checks."""
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module]
    assert [m for m in modules if m.partition(".")[0] == "riskfed"] == []


def unread_definitions(tree, read_elsewhere):
    """The names tree defines that are neither in read_elsewhere nor read in
    tree outside their own definition."""
    return [qualified for qualified, name, node, _ in definitions(tree)
            if name not in read_elsewhere
            and not any(used == name and not node.lineno <= line <= node.end_lineno
                        for used, line, _ in reads(tree))]


def test_every_oracle_is_read():
    """Each name tests/oracles.py defines is read by a test module, or by
    another oracle outside its own definition."""
    oracles = ast.parse(ORACLES.read_text(encoding="utf-8"))
    in_tests = {name for path in ORACLES.parent.glob("*.py") if path != ORACLES
                for name, _, _ in reads(ast.parse(path.read_text(encoding="utf-8")))}
    assert unread_definitions(oracles, in_tests) == []


def test_tuple_and_starred_targets_are_definitions():
    """A name bound inside a tuple, list or starred target is defined, so
    it is reported when nothing reads it; a subscript target defines
    nothing."""
    tree = ast.parse("A, (B, *C) = 1, (2, 3)\n[D] = [4]\nE = {}\nE[A] = B\n")
    assert [name for _, name, _, _ in definitions(tree)] == ["A", "B", "C", "D", "E"]
    assert unread_definitions(tree, set()) == ["C", "D"]
