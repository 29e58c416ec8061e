"""Import surface: `import gfano` loads no submodule, each command loads
only the modules it runs, and every public name resolves to its
submodule's object however the submodules were loaded.  Methods removed
from the public classes stay removed.

Each probe runs in a fresh interpreter, since the test session itself has
imported the whole package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gfano

SRC = Path(__file__).resolve().parent.parent / "src"
UNNEEDED_MODULES = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect")

#: The public names, by the submodule that defines them.
PUBLIC = {
    "series": "TruncatedSeries laplace inverse_laplace regular_shift normalize",
    "qexp": "QExpansion EtaQuotient ETA_PRODUCTS eta eta_product eisenstein_e4 "
            "discriminant klein_j",
    "d3": "D3Operator OPERATORS apply_operator apply_operator_in holomorphic_solution",
    "periods": "FAMILIES FamilyDescriptor family iseries gseries givental_constant",
    "hauptmodul": "hauptmodul renormalize_constant inverse_hauptmodul mirror_map "
                  "solve_hauptmodul_from_identity",
    "verify": "IdentityReport verify_identity sweep_free_shift "
              "verify_kachru_vafa verify_delta verify_all check_exp_relation",
    "mathieu": "FrameShape M23_SHAPES M24_EXTRA_SHAPES M24_SHAPES S24_EXTRA_SHAPES "
               "phi psi epsilon iota rational_type frobenius_mukai_check mason_eta "
               "hecke_eigenform_check correspondence_report",
}
NAME_TO_MODULE = {name: module for module, names in PUBLIC.items() for name in names.split()}


def probe(code: str):
    """Run `code` in a fresh interpreter and return the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def gfano_modules(loaded):
    return sorted(m for m in loaded if m.startswith("gfano."))


def test_import_loads_no_pool_modules():
    loaded = probe("import json, sys, gfano, gfano.cli; "
                   "print(json.dumps(sorted(sys.modules)))")
    unneeded = [m for m in loaded if m.startswith(UNNEEDED_MODULES)]
    assert not unneeded, f"import gfano loads {unneeded}"


def test_import_gfano_loads_no_submodule():
    loaded = probe("import json, sys, gfano; print(json.dumps(sorted(sys.modules)))")
    assert gfano_modules(loaded) == []


@pytest.mark.parametrize("argv, mathieu_loaded", [
    (["verify", "--family", "Y24", "--order", "5"], False),
    (["tables"], True),
])
def test_only_tables_loads_mathieu(argv, mathieu_loaded):
    out = probe(
        "import contextlib, io, json, sys\n"
        "from gfano import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))")
    code, loaded = out
    assert code == 0
    assert ("gfano.mathieu" in loaded) is mathieu_loaded, gfano_modules(loaded)


@pytest.mark.parametrize("first", [
    "",  # each name's first access loads its submodule
    "import " + ", ".join(f"gfano.{m}" for m in PUBLIC),  # all submodules loaded first
])
def test_every_public_name_is_its_submodules_object(first):
    wrong = probe(
        f"import json, sys, gfano\n{first}\n"
        f"table = {NAME_TO_MODULE!r}\n"
        "print(json.dumps([n for n, m in table.items()\n"
        "                  if getattr(gfano, n) is not getattr(sys.modules['gfano.' + m], n)]))")
    assert wrong == []


@pytest.mark.parametrize("route", [
    "import gfano.verify",
    "import gfano.hauptmodul",
    "from gfano import verify",
    "from gfano import hauptmodul",
    "gfano.hauptmodul; import gfano.verify",
])
def test_hauptmodul_stays_the_function(route):
    # importing a submodule binds it on the package under its own name;
    # for gfano.hauptmodul that name is the public function
    out = probe(
        "import json, sys, gfano\n"
        f"{route}\n"
        "module = sys.modules['gfano.hauptmodul']\n"
        "print(json.dumps([type(gfano.hauptmodul).__name__, type(module).__name__,\n"
        "                  gfano.hauptmodul is module.hauptmodul]))")
    assert out == ["function", "module", True]


def test_unknown_name_raises_attribute_error():
    out = probe(
        "import json, gfano\n"
        "try:\n"
        "    gfano.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps([str(exc), hasattr(gfano, 'no_such_name')]))")
    assert out == ["module 'gfano' has no attribute 'no_such_name'", False]


def test_star_import_binds_every_public_name():
    missing = probe(
        "import json\n"
        "from gfano import *\n"
        "import gfano\n"
        f"names = {set(NAME_TO_MODULE)!r}\n"
        "print(json.dumps(sorted(n for n in names if globals().get(n) is not getattr(gfano, n))\n"
        "                 + sorted(names - set(dir(gfano)))))")
    assert missing == []


def test_dir_lists_every_public_name_without_loading_them():
    missing, loaded = probe(
        "import json, sys, gfano\n"
        "listed = dir(gfano)\n"
        "print(json.dumps([sorted(set(gfano.__all__) - set(listed)),\n"
        "                  sorted(m for m in sys.modules if m.startswith('gfano.'))]))")
    assert missing == [] and loaded == []


@pytest.mark.parametrize("owner, method", [
    ("TruncatedSeries", "from_json"),
    ("TruncatedSeries", "agrees_to"),
    ("D3Operator", "from_json"),
    ("D3Operator", "to_json"),
    ("QExpansion", "coefficient"),
])
def test_removed_methods_are_gone(owner, method):
    with pytest.raises(AttributeError):
        getattr(getattr(gfano, owner), method)


def test_public_names_are_unchanged():
    names = probe("import json, gfano; print(json.dumps(gfano.__all__))")
    assert len(names) == len(set(names)) == 50
    assert set(names) == set(NAME_TO_MODULE)
