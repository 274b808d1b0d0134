"""The package's import structure, read from its source with `ast`: the
runtime needs only the standard library, each module imports only from the
modules below it in one fixed order, no module runs the recorded
Gauss-Jordan elimination, only `field` knows how arithmetic is chosen,
`modres` evaluates and embeds in one function each, besides the one that
builds the recovery map, GF(p)[t] is written once, for every p,
GF(p)-linear maps have one kernel, chain values stay in one batch from
the chain to the solver and back, and only `field` reads a context's
private state."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "oreelim"

# bottom to top: a module may import from the modules before it
ORDER = (
    "errors",
    "field",
    "ore_uni",
    "ore_bivar",
    "skewdet",
    "resultant",
    "modres",
    "parsing",
    "cli",
)


def _tree(name):
    return ast.parse((SRC / f"{name}.py").read_text(), filename=f"{name}.py")


def _relative_targets(node):
    """The package modules a relative `from` import names."""
    if node.module is not None:
        return [node.module.split(".")[0]]
    return [alias.name for alias in node.names]


def test_every_module_is_in_the_order():
    names = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
    assert names == sorted(ORDER)


@pytest.mark.parametrize("name", ORDER)
def test_module_level_imports_are_stdlib_or_package(name):
    for node in _tree(name).body:
        if isinstance(node, ast.Import):
            tops = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops = [node.module.split(".")[0]]
        else:
            continue
        for top in tops:
            assert top in sys.stdlib_module_names, (
                f"{name}.py line {node.lineno} imports {top!r} at module level"
            )


@pytest.mark.parametrize("name", ORDER)
def test_package_imports_point_down_the_order(name):
    below = set(ORDER[: ORDER.index(name)])
    for node in ast.walk(_tree(name)):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        assert node.level == 1, f"{name}.py line {node.lineno} leaves the package"
        for target in _relative_targets(node):
            assert target in below, (
                f"{name}.py line {node.lineno} imports {target!r}, "
                f"which is not below {name!r}"
            )


def test_modres_runs_no_gauss_jordan():
    # recovery and the embedding's inverse share the package's one
    # elimination, `field.GFpSolver`; the recorded elimination is test
    # equipment (`tests/oracles.py`), named by no module of the package
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path.stem)):
            if isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.FunctionDef):
                name = node.name
            else:
                continue
            assert name not in ("_eliminate", "_replay"), (
                f"{path.name} line {node.lineno} names {name!r}"
            )


# names of per-characteristic copies of GF(p)[t] arithmetic (Ben-Or, the
# remainder, the product and the inverse), which `field._GFpT` does once
RETIRED_GFPT = {
    "_is_irreducible_gf2",
    "_gf2_mod",
    "_inv_bits",
    "_inv_poly",
    "_mul_bits",
    "_mul_batch",
}


@pytest.mark.parametrize("name", ORDER)
def test_gf_p_t_is_written_once(name):
    # Ben-Or, the remainder, the product and the inverse outside the log
    # tables run on one slot-packed core for every p; no module defines a
    # second copy for one characteristic
    for node in ast.walk(_tree(name)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined = node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined = node.id
        else:
            continue
        assert not (defined.startswith("_gfp_") or defined in RETIRED_GFPT), (
            f"{name}.py line {node.lineno} defines {defined!r}"
        )


# names of the former single-value kernel for GF(p)-linear maps and its
# Frobenius memo; `field.FieldBatch` applies every such map
RETIRED_LINEAR_MAPS = {
    "_combine",
    "_columns",
    "_slot_bits",
    "_frob_images",
    "_build_frob_images",
    "frob_columns",
    "_frob_cols",
}


@pytest.mark.parametrize("name", ORDER)
def test_linear_maps_have_one_kernel(name):
    # a Frobenius power, the table build's generator step, the embedding
    # and the root search's trace maps all run on `FieldBatch`; no module
    # defines or names a second kernel or a second Frobenius memo
    for node in ast.walk(_tree(name)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found = node.name
        elif isinstance(node, ast.Name):
            found = node.id
        elif isinstance(node, ast.Attribute):
            found = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found = node.value  # a `__slots__` entry
        else:
            continue
        assert found not in RETIRED_LINEAR_MAPS, (
            f"{name}.py line {node.lineno} names {found!r}"
        )


@pytest.mark.parametrize(
    "name", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "field")
)
def test_only_field_names_the_backend(name):
    # a context's arithmetic follows from (p, m); no other module reads or
    # passes the name of that choice
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.Name):
            found = node.id
        elif isinstance(node, ast.Attribute):
            found = node.attr
        elif isinstance(node, ast.arg):
            found = node.arg
        else:
            continue
        assert found != "backend", f"{name}.py line {node.lineno} names 'backend'"


def test_modres_evaluates_and_embeds_in_one_place():
    # `chain_evaluate` is the one evaluation loop and `embed_uni` the one
    # coefficient map: the bad-evaluation check and the bivariate embedding
    # go through them.  The one other reader of the plan's actions and of
    # the embedding's packed map is `_forward_columns`, which builds the
    # recovery solver's columns in one pass over the actions, where one-entry
    # chains through `chain_evaluate` would take each S-power m times
    readers = {"actions": set(), "map_packed": set()}
    for func in ast.walk(_tree("modres")):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and node.attr in readers:
                readers[node.attr].add(func.name)
    assert readers == {
        "actions": {"chain_evaluate", "_forward_columns"},
        "map_packed": {"embed_uni", "_forward_columns"},
    }


def test_chain_values_stay_in_the_batch():
    # the chain hands recovery the plan's `FieldBatch` as it leaves it, and
    # the solver hands back its answer in the batch's slots: the solver
    # spreads and gathers nothing, `FieldBatch.values` is the one read-out
    # of a batch (no module defines or reads a `packed` one), and `modres`
    # splits no values by divmod
    solver = next(
        node
        for node in ast.walk(_tree("field"))
        if isinstance(node, ast.ClassDef) and node.name == "GFpSolver"
    )
    (solve,) = [f for f in solver.body if isinstance(f, ast.FunctionDef) and f.name == "solve"]
    named = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(solve)}
    assert not named & {"_spread", "_gather", "packed"}
    for name in ORDER:
        for node in ast.walk(_tree(name)):
            assert not (
                isinstance(node, ast.Attribute) and node.attr == "packed"
                or isinstance(node, ast.FunctionDef) and node.name == "packed"
            ), f"{name}.py line {node.lineno} names 'packed'"
    for node in ast.walk(_tree("modres")):
        assert not (isinstance(node, ast.Name) and node.id == "divmod"), (
            f"modres.py line {node.lineno} calls divmod"
        )


@pytest.mark.parametrize("name", [n for n in ORDER if n != "field"])
def test_only_field_reads_private_context_state(name):
    # a context's tables and memos belong to `field`; every other module
    # calls the context's public methods (`ore_uni.neg_packed` maps
    # `ctx.neg`), so no attribute of a `ctx` that starts with an
    # underscore is read outside `field`
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            owner = ast.unparse(node.value)
            assert not owner.endswith("ctx"), (
                f"{name}.py line {node.lineno} reads {owner}.{node.attr}"
            )


def test_skewdet_chooses_no_arithmetic_by_characteristic():
    # the field decides whether rows are bytes and how bytes add, so
    # `skewdet` reads no characteristic and has one byte store for every
    # field with byte tables, beside the tuple store for the rest
    tree = _tree("skewdet")
    for node in ast.walk(tree):
        assert not (isinstance(node, ast.Attribute) and node.attr == "p"), (
            f"skewdet.py line {node.lineno} reads '.p'"
        )
    stores = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for f in node.body
        if isinstance(f, ast.FunctionDef) and f.name == "reduce_below"
    }
    assert stores == {"_ByteRows", "_TupleRows"}
