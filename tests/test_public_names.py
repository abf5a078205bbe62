"""Every public top-level name of arithreg, and every public method of a public
class, has a caller outside the tests.

A name passes when some Python file under src/ or perfbench/ reaches
it as module.name, imports it from its module, or loads it as a bare name
inside its own module; or when ALLOWED gives the reason it stays although
only the tests use it.  A bare name elsewhere is not enough: a parameter
`alpha` or a call `np.convolve` is not a use of `reg_general.alpha` or
`harmonic.convolve`.  A method is listed as module.Class.method and passes on
any attribute load of its name, since the receiver's class is not known
statically.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    "harmonic.save_set": "set-file writer",
    "reg_f2.is_regular_value_f2": "oracle",
    "reg_f2.local_triangle_count": "lemma checker",
    "reg_general.check_energy_difference": "lemma checker",
    "reg_general.check_low_density_count": "lemma checker",
    "reg_general.check_regular_value": "oracle",
    "reg_general.check_uniform_weight_count": "lemma checker",
    "reg_general.check_witness_stability": "lemma checker",
    "reg_general.regular_value_profile": "oracle",
    "reg_general.weighted_T": "lemma checker",
}


def _defined(path: Path):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}"
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _loaded() -> set[str]:
    """module.name for every use above; .method for every attribute load."""
    names = set()
    for folder in ("src", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            own = path.stem if path.parent.name == "arithreg" else None
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module:
                    stem = node.module.rpartition(".")[2]
                    names.update(f"{stem}.{alias.name}" for alias in node.names)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    owner = node.value
                    stem = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", "")
                    names.update((f"{stem}.{node.attr}", f".{node.attr}"))
                elif own and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(f"{own}.{node.id}")
    return names


def test_every_public_name_has_a_caller_or_a_reason():
    public = {
        f"{path.stem}.{name}"
        for path in (ROOT / "src" / "arithreg").glob("*.py")
        for name in _defined(path)
        if not name.startswith("_")
    }
    loaded = _loaded()
    called = {
        q for q in public
        if (q.count(".") == 2 and "." + q.rpartition(".")[2] in loaded) or q in loaded
    }
    assert sorted(public - called - ALLOWED.keys()) == []
    # an entry that is gone or has gained a caller leaves the list
    assert sorted(ALLOWED.keys() - (public - called)) == []
