import ast
import builtins
import importlib
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

import transdirac

README = Path(__file__).resolve().parent.parent / "README.md"
# names the README cites that belong to numpy or the standard library
# without a module prefix
OUTSIDE_NAMES = {"eigvalsh", "tolist"}
# the prefixes of dotted names other than those of transdirac's modules
PREFIXES = {"np": np, "json": json}


def _module_texts():
    """{module name: the README text that describes it}: each row of the
    library table, with the Sphere charts section added to sphere_model's."""
    text = README.read_text(encoding="utf-8")
    rows = dict(re.findall(r"^\| `transdirac\.(\w+)` \| (.*) \|$", text, flags=re.M))
    section = re.search(r"^### Sphere charts\n(.*?)^## ", text, flags=re.S | re.M)
    rows["sphere_model"] += section.group(1)
    return rows


def _cited_names(text: str) -> list:
    """The identifiers in backticks, bare or called (`name(...)`); CLI
    commands, shapes and expressions are skipped."""
    spans = re.findall(r"`([^`]+)`", text)
    return [m.group(1) for m in map(re.compile(r"([A-Za-z_][\w.]*)(\(.*\))?$").match, spans) if m]


def _known_names(module) -> set:
    """The module's attributes, the attributes and fields of the classes it
    holds, the parameters of the functions defined in it, and the string
    constants of its source (dict keys, method and subcommand names)."""
    known = set(dir(module)) | set(dir(builtins)) | OUTSIDE_NAMES
    for value in vars(module).values():
        if inspect.isclass(value):
            # __annotations__ holds a dataclass's fields that have no default
            known |= set(dir(value)) | set(getattr(value, "__annotations__", {}))
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.arg):
            known.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            known.add(node.value)
    return known


def _resolves(dotted: str) -> bool:
    head, *rest = dotted.split(".")
    obj = PREFIXES.get(head)
    if obj is None:
        try:
            obj = importlib.import_module("transdirac." + head)
        except ModuleNotFoundError:
            return False
    for part in rest:
        obj = getattr(obj, part, None)
    return obj is not None


def test_readme_names_exist_in_their_modules():
    texts = _module_texts()
    assert len(texts) == 9
    missing = []
    for name, text in texts.items():
        module = importlib.import_module("transdirac." + name)
        known = _known_names(module)
        for cited in _cited_names(text):
            if not (_resolves(cited) if "." in cited else cited in known):
                missing.append((name, cited))
    assert missing == [], missing


def test_readme_name_check_flags_a_stale_name():
    from transdirac import cli

    assert "_render_column" in _known_names(cli)
    assert "_DISTINCT" not in _known_names(cli)
    assert _cited_names("`_DISTINCT` and `f(x, y)`, not `a b` or `(n, d)`") == ["_DISTINCT", "f"]
    assert _resolves("np.broadcast_to") and _resolves("index_engine.build_index_table")
    assert not _resolves("np.no_such_name") and not _resolves("no_module.build_index_table")


def test_claims_ledger_commands_run_and_its_names_exist(capsys):
    from transdirac import cli

    text = README.read_text(encoding="utf-8")
    ledger = re.search(r"^## Paper claims and what is checked\n(.*?)^## ", text,
                       flags=re.S | re.M).group(1)
    commands = [shlex.split(span)[1:] for span in re.findall(r"`(transdirac [^`]+)`", ledger)]
    assert len(commands) == 7
    for argv in commands:
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    # a cited test_* is a test function; any other name belongs to a module
    tests = "".join(path.read_text(encoding="utf-8") for path in README.parent.glob("tests/*.py"))
    known = set().union(*(_known_names(importlib.import_module("transdirac." + name))
                          for name in _module_texts()))
    missing = [name for name in _cited_names(ledger)
               if not ("def %s(" % name in tests if name.startswith("test_") else name in known)]
    assert missing == [], missing


def _loaded_submodules(code: str, *args) -> list:
    """The transdirac submodules loaded in a fresh interpreter after code runs."""
    code += "\nprint(sorted(m for m in sys.modules if m.startswith('transdirac.')))"
    env = dict(os.environ, PYTHONPATH=str(Path(transdirac.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         env=env, check=True).stdout
    return ast.literal_eval(out)


def test_importing_the_package_loads_no_submodule():
    assert _loaded_submodules("import sys, transdirac") == []


def test_each_command_loads_only_its_modules():
    assert _loaded_submodules("import sys, transdirac.cli as cli; cli.build_parser()") == [
        "transdirac.cli"]
    # the command's JSON goes to a buffer, so stdout holds only the module list
    run = ("import contextlib, io, sys, transdirac.cli as cli\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           "    assert cli.main(sys.argv[1:]) == 0")
    never = {
        ("torus-spectrum", "--op", "DL", "--g", "0.3sin", "--N", "16"):
            ("sphere_model", "index_engine", "verification", "frame_geometry"),
        ("sphere-index", "--n-min", "-1", "--n-max", "1", "--m-min", "-1", "--m-max", "1",
         "--method", "both"): ("torus_model", "verification", "frame_geometry"),
        ("compare-quotient", "--n-max", "1", "--m-max", "1"):
            ("verification", "frame_geometry", "index_engine", "torus_model"),
    }
    for argv, modules in never.items():
        loaded = _loaded_submodules(run, *argv)
        assert "transdirac.cli" in loaded
        assert not {"transdirac." + module for module in modules} & set(loaded), (argv, loaded)
