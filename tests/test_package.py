import ast
import importlib
import inspect
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lpbounds"


def _public_functions(tree):
    """Names in a module's __all__ that the module defines as functions."""
    exported = next((ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and any(getattr(t, "id", None) == "__all__"
                             for t in node.targets)), [])
    defined = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    return [name for name in exported if name in defined]


def test_no_module_imports_scipy():
    # numpy is the package's one dependency; scipy is not installed with it
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name == "scipy" or name.startswith("scipy.")]
    assert found == []


def test_every_public_function_has_a_caller_in_the_package():
    # a public name that only its own unit tests use should not be public;
    # each function must be named somewhere in src besides its def line
    # and its __all__ entry.  A package re-export is no caller.
    texts = {path: path.read_text() for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"}
    unused = []
    for path, text in texts.items():
        for name in _public_functions(ast.parse(text)):
            word = re.compile(rf"\b{re.escape(name)}\b")
            uses = sum(len(word.findall(t)) for t in texts.values())
            if uses <= 2:
                unused.append(f"{path.name}:{name}")
    assert unused == []


# cli.main's argv is the command line, which comes from outside the
# package: __main__ passes nothing and the tests pass their own lists
_KNOB_ALLOWED = {"cli.main": {"argv"}}


def _bound_arguments(call, params):
    """{parameter: argument node or None (unknown)} a call sets."""
    bound = {}
    for name, arg in zip(params, call.args):
        if isinstance(arg, ast.Starred):
            break
        bound[name] = arg
    for kw in call.keywords:
        if kw.arg is not None:
            bound[kw.arg] = kw.value
    unpacked = (any(isinstance(a, ast.Starred) for a in call.args)
                or any(kw.arg is None for kw in call.keywords))
    if unpacked:
        # *args or **kwargs may set anything left
        bound.update({name: None for name in params if name not in bound})
    return bound


def _imported_or_defined(tree):
    """Names a module imports (at any depth) or defines at its top level."""
    names = {node.name for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name for a in node.names}
    return names


def test_no_public_parameter_is_a_fixed_knob():
    # a parameter of a public function is a knob left unturned when it has
    # a default that no call in the package sets, or when every call in the
    # package passes it the same literal (at least two calls).
    # partial(f, *a, **kw) counts as a call of f with those arguments.
    # Calls of a function otherwise used as a value (aliased, stored)
    # cannot be traced by name, so for it only the first rule applies: a
    # defaulted parameter is never set when no call in the package passes
    # it by keyword, under any name, nor by position in a direct call.  A
    # name counts as such a use only in a module that imports or defines
    # it, so a local variable of the same name elsewhere does not hide the
    # function.
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"}
    defs = {}
    for module, tree in trees.items():
        public = set(_public_functions(tree))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in public:
                defs[node.name] = (module, node)
    calls = {name: [] for name in defs}
    as_value = set()
    keywords = set()
    for tree in trees.values():
        callees = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            keywords |= {kw.arg for kw in node.keywords}
            func, args = node.func, node.args
            if (isinstance(func, ast.Name) and func.id == "partial" and args
                    and isinstance(args[0], ast.Name)):
                func, args = args[0], args[1:]
            if isinstance(func, ast.Name) and func.id in calls:
                calls[func.id].append(ast.Call(func, args, node.keywords))
                callees.add(id(func))
        bound_here = _imported_or_defined(tree)
        as_value |= {node.id for node in ast.walk(tree)
                     if isinstance(node, ast.Name) and node.id in calls
                     and node.id in bound_here
                     and isinstance(node.ctx, ast.Load)
                     and id(node) not in callees}
    knobs = []
    for name, (module, fn) in defs.items():
        args = fn.args
        params = [a.arg for a in args.posonlyargs + args.args]
        defaulted = set(params[len(params) - len(args.defaults):])
        defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None}
        bound = [_bound_arguments(call, params) for call in calls[name]]
        for param in params + [a.arg for a in args.kwonlyargs]:
            if param in _KNOB_ALLOWED.get(f"{module}.{name}", ()):
                continue
            passed = [b[param] for b in bound if param in b]
            literals = [node.value for node in passed
                        if isinstance(node, ast.Constant)]
            traced = name not in as_value
            if (param in defaulted and not passed
                    and (traced or param not in keywords)):
                knobs.append(f"{module}.{name}:{param} (never set)")
            elif (traced and len(literals) == len(calls[name]) >= 2
                  and len({repr(v) for v in literals}) == 1):
                knobs.append(f"{module}.{name}:{param} (always "
                             f"{literals[0]!r})")
    assert knobs == []


def test_no_value_only_read_of_kappa_max():
    # kappa_max runs a bracket search for its cross-check; a caller
    # that reads only the closed form calls kappa_max_value instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "closed_form"
                    and isinstance(node.value, ast.Call)):
                func = node.value.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name == "kappa_max":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_numeric_function_takes_threads():
    # the thread count reaches Monte Carlo only through the pool of a
    # quadrature._workers block, so no function below the CLI and the
    # suites takes it as an argument; _workers itself is the one exception
    found = []
    for module in ("quadrature", "averages", "constants", "counterexamples"):
        mod = importlib.import_module(f"lpbounds.{module}")
        for name, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and "threads" in inspect.signature(fn).parameters):
                found.append(f"{module}.{name}")
    assert found == ["quadrature._workers"]


def test_field_evaluation_takes_no_powers():
    # polynomial_field and harmonic_polynomial_field evaluate powers by
    # multiplication (a power ladder and Horner's rule); no function nested
    # in them may raise to a power, by ** or by a pow/power call
    tree = ast.parse((SRC / "fields.py").read_text())
    found = []
    for top in tree.body:
        if not (isinstance(top, ast.FunctionDef) and top.name in
                ("polynomial_field", "harmonic_polynomial_field")):
            continue
        for inner in ast.walk(top):
            if inner is top or not isinstance(inner, ast.FunctionDef):
                continue
            for node in ast.walk(inner):
                func = getattr(node, "func", None)
                name = getattr(func, "id", getattr(func, "attr", None))
                if (isinstance(getattr(node, "op", None), ast.Pow)
                        or name in ("pow", "power", "float_power")):
                    found.append(f"{top.name}.{inner.name}:{node.lineno}")
    assert found == []
