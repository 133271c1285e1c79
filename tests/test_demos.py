"""The demo configs, the benchmark's workloads and README's quickstart
against the API, without running them: every demo config is run by a README
command and binds to that command's study, every name a script imports
from fkpplab exists, every call it makes to an imported fkpplab callable
binds to that callable's signature, and every name it imports is used.  The
package's modules (bar __init__.py, whose imports are its exports) and the
tests use every name they import too."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

from fkpplab import cli
from fkpplab.config import load_config

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SCRIPTS = [ROOT / "perfbench" / "workloads.py", README]
SOURCES = sorted(p for p in ROOT.glob("src/fkpplab/*.py")
                 if p.name != "__init__.py") + sorted(ROOT.glob("tests/*.py"))


# (command, config) of each README line that runs a demo config
DEMO_COMMANDS = re.findall(r"^fkpplab ([\w-]+) --config (demos/\w+\.ini) ",
                           README.read_text(), re.M)


def test_every_demo_config_is_run_by_a_readme_command():
    assert ({path for _, path in DEMO_COMMANDS}
            == {f"demos/{p.name}" for p in ROOT.glob("demos/*.ini")})


@pytest.mark.parametrize("command, path", DEMO_COMMANDS,
                         ids=[f"{c}-{Path(p).stem}" for c, p in DEMO_COMMANDS])
def test_demo_config_binds_to_its_readme_command(command, path):
    cfg = load_config(str(ROOT / path))
    run, only = cli._reading(command, cfg)
    inspect.signature(run).bind(**cli._kwargs(run, only, cfg))


def _parse(path):
    """The syntax tree of a script, or of the ```python blocks of a
    Markdown file."""
    text = path.read_text()
    if path.suffix == ".md":
        text = "\n".join(re.findall(r"^```python\n(.*?)^```", text, re.S | re.M))
    return ast.parse(text, filename=str(path))


def _imported(tree):
    """{local name: object} of every `from fkpplab... import name`."""
    names = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "fkpplab"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), \
                    f"line {node.lineno}: {node.module} has no {alias.name}"
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def _callee(func, names):
    """The fkpplab callable a call names, `f(...)` or `Class.method(...)`,
    or None for any other call."""
    if isinstance(func, ast.Name):
        return names.get(func.id)
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and func.value.id in names):
        owner = names[func.value.id]
        assert hasattr(owner, func.attr), \
            f"line {func.lineno}: {func.value.id} has no {func.attr}"
        return getattr(owner, func.attr)
    return None


@pytest.mark.parametrize("demo", SCRIPTS, ids=lambda p: p.name)
def test_demo_calls_bind_to_the_api(demo):
    tree = _parse(demo)
    names = _imported(tree)
    checked = 0
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        fn = _callee(call.func, names)
        if fn is None or not callable(fn):
            continue
        if (any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg is None for k in call.keywords)):
            continue  # *args or **kwargs: the arity is not in the source
        try:
            inspect.signature(fn).bind_partial(
                *call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            pytest.fail(f"{demo.name}:{call.lineno}: {ast.unparse(call.func)}: {exc}")
        checked += 1
    assert checked, f"{demo.name} calls no fkpplab callable"


@pytest.mark.parametrize("demo", SCRIPTS + SOURCES, ids=lambda p: p.name)
def test_demo_uses_every_import(demo):
    tree = _parse(demo)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        f"line {node.lineno}: {alias.asname or alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in used
    ]
    assert not unused, f"{demo.name} imports names it never uses: {unused}"
