"""Every optional parameter in ``src/hmfx`` has a caller that sets it.

A parameter with a default that no call ever passes is a constant in
disguise: it doubles the configurations to cover while only one value is
ever used.  The check is by name: a function's optional parameter counts
as set when some call of a function or method with the same name, in
``src/hmfx``, ``tests`` or ``scripts``, passes it by keyword or reaches
its position.  Constructors are matched by class name, through
``__init__`` or the fields of a dataclass.  Matching by name can miss an
unused option (another callable of the same name sets it), but it never
flags a used one.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hmfx"
CALLER_DIRS = (PACKAGE, ROOT / "tests", ROOT / "scripts")

# (callable, parameter) pairs kept although nothing here passes them
ALLOWED = {
    # the benchmark tracer reads it at argument position 3
    ("gaussian_integral", "n_radial"),
}


def _trees(dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "attr", getattr(target, "id", "")) == "dataclass":
            return True
    return False


def _optional_params(fn: ast.FunctionDef, bound: bool):
    """(name, position or None) of each parameter with a default; the
    position counts call arguments, so a bound ``self``/``cls`` is skipped."""
    args = fn.args
    positional = args.posonlyargs + args.args
    offset = 1 if bound and positional else 0
    first_default = len(positional) - len(args.defaults)
    for i, a in enumerate(positional[first_default:], start=first_default):
        yield a.arg, i - offset
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield a.arg, None


def _declarations():
    """(path, callable name, parameter, position, is a dataclass field) of
    every optional parameter declared in the package."""
    for path, tree in _trees([PACKAGE]):
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)
                          and isinstance(s.target, ast.Name)]
                for i, s in enumerate(fields):
                    if s.value is not None:
                        yield path, cls.name, s.target.id, i, True
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            owner = parents[fn]
            method = isinstance(owner, ast.ClassDef)
            static = any(getattr(d, "id", "") == "staticmethod"
                         for d in fn.decorator_list)
            name = owner.name if method and fn.name == "__init__" else fn.name
            for param, pos in _optional_params(fn, bound=method and not static):
                yield path, name, param, pos, False


def _calls():
    """name -> list of (number of positional arguments, keyword names);
    ``None`` stands for a ``*args`` or ``**kwargs`` that may pass anything."""
    calls: dict[str, list] = {}
    for _, tree in _trees(CALLER_DIRS):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name is None:
                continue
            n_pos = (None if any(isinstance(a, ast.Starred) for a in node.args)
                     else len(node.args))
            keywords = (None if any(k.arg is None for k in node.keywords)
                        else {k.arg for k in node.keywords})
            calls.setdefault(name, []).append((n_pos, keywords))
    return calls


def _passed(calls, pos, param) -> bool:
    for n_pos, keywords in calls:
        if n_pos is None or keywords is None:
            return True
        if param in keywords or (pos is not None and n_pos > pos):
            return True
    return False


def test_every_optional_parameter_is_passed_somewhere():
    calls = _calls()
    unset = sorted(
        f"{path.relative_to(ROOT)}: {name}({param}=)"
        for path, name, param, pos, field in _declarations()
        if (name, param) not in ALLOWED
        and not _passed(calls.get(name, []), pos, param)
        # dataclasses.replace sets fields by keyword
        and not (field and _passed(calls.get("replace", []), None, param)))
    assert not unset, "optional parameters no call sets:\n" + "\n".join(unset)


def test_allow_list_names_declared_parameters():
    declared = {(name, param) for _, name, param, _, _ in _declarations()}
    assert ALLOWED <= declared
