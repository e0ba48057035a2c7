"""The command line reads only the public names of the library modules it drives.

cli.py decides what a request may hold and how to print it; how a kernel
does its work, and any policy that tunes it, belongs to the kernel's module.
A read of an underscore name of channels, rotation, capacity or jsonio would
let the front end follow such a policy as a second owner, as the size guard
once did with the per-sector residual's chunk size. This test fails on each
such read, through a module alias or a from-import.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "eblab"
LIBRARY = {"channels", "rotation", "capacity", "jsonio"}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(tree):
    """(line, 'module.name') for each underscore name of a LIBRARY module that tree reads."""
    aliases, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("eblab").lstrip(".")
            if module in LIBRARY:  # from .channels import _name
                found.extend((node.lineno, f"{module}.{alias.name}")
                             for alias in node.names if _private(alias.name))
            elif not module:  # from . import channels as ch
                aliases.update((alias.asname or alias.name, alias.name)
                               for alias in node.names if alias.name in LIBRARY)
        elif isinstance(node, ast.Import):  # import eblab.channels as ch
            aliases.update((alias.asname, alias.name.removeprefix("eblab."))
                           for alias in node.names
                           if alias.asname and alias.name.removeprefix("eblab.") in LIBRARY)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            found.append((node.lineno, f"{aliases[node.value.id]}.{node.attr}"))
    return sorted(found)


def test_cli_reads_no_private_name_of_the_library():
    path = SRC / "cli.py"
    assert private_reads(ast.parse(path.read_text(), str(path))) == []


def test_the_guard_flags_each_private_read():
    flagged = """
from . import channels as ch
from . import jsonio
from .rotation import _charges, phi_profile
from eblab.capacity import _fold
import eblab.rotation as rot
rows = ch._chunk_rows(d, nodes)
text = jsonio._dump(doc)
basis = rot._node_basis
"""
    assert private_reads(ast.parse(flagged)) == [
        (4, "rotation._charges"), (5, "capacity._fold"), (7, "channels._chunk_rows"),
        (8, "jsonio._dump"), (9, "rotation._node_basis")]
    passed = """
from . import channels as ch
from .hilbert import _at_most
from .rotation import phi_profile
rows = ch.EXTRACT_TOL
doc = ch.__doc__
other._chunk_rows(d, nodes)
"""
    assert private_reads(ast.parse(passed)) == []
