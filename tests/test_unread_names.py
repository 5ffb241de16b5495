"""No unread names in src/: ROADMAP aim 2's "code that only its own tests
call is deleted".

Lists the top-level functions, module-level constants, and the methods,
properties and dataclass fields of every class in src/ that no code in src/
or perfbench/ reads (tests and dunder names excluded).  Reads are matched by
name (a loaded name or attribute, or a string constant), so a name read
anywhere counts and the list can only err short; a name's own assignment (a
store) is not a read, or no module constant or dataclass field could ever be
listed.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _assigned(node):
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def unread_names(root=ROOT):
    defs, reads = {}, set()
    for path in sorted((root / "src").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[f"{path.stem}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defs[f"{path.stem}.{node.name}.{item.name}"] = item.name
                    for name in _assigned(item):
                        defs[f"{path.stem}.{node.name}.{name}"] = name
            for name in _assigned(node):
                defs[f"{path.stem}.{name}"] = name
    for path in [*(root / "src").rglob("*.py"), *(root / "perfbench").rglob("*.py")]:
        if path.name.startswith("test_"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                reads.add(node.id if isinstance(node, ast.Name) else node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.add(node.value)
    return sorted(
        key for key, name in defs.items()
        if name not in reads and not (name.startswith("__") and name.endswith("__"))
    )


def test_no_unread_names():
    assert unread_names() == []
