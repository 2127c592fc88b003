"""Package surface: every exported name resolves, no import goes unused,
memo tables are ``lru_cache``s, and sums of terms live in the one shared
container."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import quadosc

MODULES = ["quadosc"] + [f"quadosc.{m.name}" for m in pkgutil.iter_modules(quadosc.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"


# weyl._reorder keeps a dict because the benchmark's tracer reads its size as
# the reorder miss count; every other memo table is an lru_cache
DICT_CACHES = {("quadosc.weyl", "_REORDER_CACHE")}


@pytest.mark.parametrize("name", MODULES)
def test_memo_tables_are_lru_caches(name):
    module = importlib.import_module(name)
    dicts = {(name, attr) for attr, value in vars(module).items()
             if attr.endswith("_CACHE") and isinstance(value, dict)}
    assert dicts <= DICT_CACHES, f"hand-rolled memo dicts: {sorted(dicts - DICT_CACHES)}"


# the s-extension keeps its own sum until the benchmark stops wrapping it;
# every other class with a sum is the scalar or a SparseTerms
ADDITIVE_CLASSES = {("quadosc.coeff", "ParamScalar"),
                    ("quadosc.operators", "SqrtTwoLamOperator")}


@pytest.mark.parametrize("name", MODULES)
def test_sums_live_in_the_shared_container(name):
    from quadosc.weyl import SparseTerms
    module = importlib.import_module(name)
    rolled = {(name, attr) for attr, cls in vars(module).items()
              if inspect.isclass(cls) and cls.__module__ == name
              and "__add__" in vars(cls) and not issubclass(cls, SparseTerms)}
    assert rolled <= ADDITIVE_CLASSES, f"hand-rolled containers: {sorted(rolled - ADDITIVE_CLASSES)}"


def test_a_repeated_commutator_hits_the_bracket_cache():
    from quadosc import weyl
    from quadosc.operators import op
    first = op("H").commutator(op("A+"))
    hits = weyl._bracket_terms.cache_info().hits
    assert op("H").commutator(op("A+")) == first
    assert weyl._bracket_terms.cache_info().hits > hits


def test_brackets_leave_the_product_cache_alone():
    # a bracket is one pass of its own expansion, memoized in _bracket_terms;
    # only products fill the dict whose size the tracer reads as reorder misses
    from quadosc import weyl
    from quadosc.operators import op
    h, qp, ap = op("H"), op("Q+"), op("A+")
    weyl._REORDER_CACHE.clear()
    weyl._bracket_terms.cache_clear()
    h.commutator(qp)
    qp.anticommutator(ap)
    assert weyl._bracket_terms.cache_info().misses > 0
    assert weyl._REORDER_CACHE == {}


def _imported_names(tree):
    """The names the module body's own import statements bind."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    module = importlib.import_module(name)
    tree = ast.parse(inspect.getsource(module))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(getattr(module, "__all__", ()))
    unused = sorted(set(_imported_names(tree)) - used)
    assert not unused, f"{name} imports names it never uses: {unused}"
