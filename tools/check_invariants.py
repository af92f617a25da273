"""Repo-invariant lint: cache-key coverage and payload-envelope checks.

The persistent caches (``repro.study.trace_cache`` /
``repro.study.result_store``) key every entry by fingerprints over the
*source files* that shape its contents.  Two invariants keep that
scheme honest, and both have failed silently before they were checked:

1. **Fingerprint coverage** — every module under the watched
   ``repro.*`` packages must either be covered by one of the
   ``fingerprint_sources`` package/module lists, or be explicitly
   declared orchestration-only in :data:`ORCHESTRATION_ONLY` below.  A
   new module fails this check until its author decides whether editing
   it must invalidate cached traces/results.

2. **Versioned payload envelopes** — every stored payload layout and
   every registered trace walker must produce payloads that ride inside
   a versioned envelope (a ``version`` key stamped from a module
   constant and checked on load), so layout changes fail closed as
   cache misses instead of deserializing garbage.

Two documentation invariants ride along:

3. **CLI doc sync** — the generated section of ``docs/CLI.md`` must
   name exactly the option strings that ``repro.cli``'s parser builders
   define (both directions), so the reference cannot rot.

4. **Protocol docstrings** — the public protocol-surface modules (the
   same list ruff's ``D`` rules cover in ``pyproject.toml``) must
   docstring every public module/class/function/method, so the checked
   docs work even where ruff is not installed.

5. **Observability discipline** — ``repro.obs.tracing.span`` is the
   engine's one sanctioned stopwatch: no module under ``src/repro``
   outside ``repro/obs/`` may reference ``perf_counter`` (an ad-hoc
   timer would bypass the tracer and the metrics registry), and every
   module on the instrumented list must import ``repro.obs``.

6. **Scheme registration** — every compression scheme registered in
   ``repro.core.compress.SCHEME_REGISTRY`` must also be soundness
   cross-checked (a member of ``crosscheck.DEFAULT_SCHEMES``) and
   surfaced by ``repro list`` (the CLI references ``scheme_names``).
   A scheme that is registered but never cross-checked could silently
   under-claim bits in every table it appears in.

7. **Fault-point discipline** — every ``faults.fire("...")`` call site
   under ``src/repro`` must name a point registered in
   ``repro.obs.faults.POINTS`` (an unregistered point would silently
   never fire), every registered point must have at least one live call
   site outside ``faults.py`` (a dead point would let chaos specs pass
   vacuously), and every point must be documented (backticked) in
   ``docs/ROBUSTNESS.md``.

8. **Supervised forking** — nothing may fork without supervision: no
   module under ``src/repro`` other than ``repro/study/supervisor.py``
   may construct a ``Pool(...)`` or ``Process(...)`` (bare or as an
   attribute, e.g. ``context.Pool``), so every worker process goes
   through the retrying, quarantining ``SupervisedExecutor``.

Everything here is AST-based: the checker parses sources, it never
imports ``repro`` (so it runs before the package does, and a syntax
error in the tree is itself a finding).  Run from the repo root:

    python tools/check_invariants.py
"""

import ast
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")

#: Packages whose modules must all be fingerprint-covered or exempted.
WATCHED_PACKAGES = (
    "repro.minic",
    "repro.asm",
    "repro.isa",
    "repro.sim",
    "repro.core",
    "repro.pipeline",
    "repro.analysis",
    "repro.study",
    "repro.obs",
)

#: Modules that only orchestrate (schedule, cache, report): their
#: *identity* rides in cache keys through unit descriptors and the
#: store version, not through a source fingerprint.  Every name here is
#: a deliberate decision — a new study module must be added to either
#: this set or ``_ENGINE_MODULES`` before the check passes.
ORCHESTRATION_ONLY = frozenset((
    "repro.study",              # package __init__: re-exports only
    "repro.study.activity_study",
    "repro.study.cpi_study",
    # How entries reach disk (atomic write, retry, degrade, fail-closed
    # read), never what they hold: the stores' keys carry the versions.
    "repro.study.disk_store",
    "repro.study.experiments",
    "repro.study.funct_study",
    "repro.study.patterns_study",
    "repro.study.pc_study",
    "repro.study.report",
    "repro.study.result_store",  # keys carry STORE_VERSION instead
    "repro.study.scheduler",     # unit descriptors ride in keys
    "repro.study.session",
    "repro.study.trace_cache",   # keys carry CACHE_VERSION instead
    # Observability never shapes cached artifacts: spans and counters
    # describe a run, they do not feed results, so repro.obs stays
    # outside every fingerprint (editing it must not cold-start CI).
    "repro.obs",                # package __init__: re-exports only
    "repro.obs.faults",         # injection shapes failures, not results
    "repro.obs.metrics",
    "repro.obs.runlog",
    "repro.obs.tracing",
    # The supervisor decides *where/when* units run (retry, quarantine,
    # timeout) but delegates *what* they compute to the broker, whose
    # unit descriptors already ride in every cache key.
    "repro.study.supervisor",
))

#: (relative path, version constant) pairs: every stored-payload layout
#: must stamp and re-check one of these constants.
VERSION_ENVELOPES = (
    ("src/repro/study/walkers.py", "WALK_VERSION"),
    ("src/repro/analysis/driver.py", "ANALYSIS_VERSION"),
    ("src/repro/pipeline/base.py", "RESULT_SCHEMA_VERSION"),
    ("src/repro/pipeline/activity.py", "REPORT_SCHEMA_VERSION"),
    ("src/repro/core/icompress.py", "SCHEMA_VERSION"),
)


def _parse(relative_path):
    path = os.path.join(REPO_ROOT, relative_path)
    with open(path, "r", encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=relative_path)


def _tuple_of_strings(node):
    """The string elements of a tuple/list literal, or None."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    items = []
    for element in node.elts:
        if not isinstance(element, ast.Constant) or not isinstance(
            element.value, str
        ):
            return None
        items.append(element.value)
    return tuple(items)


def _assigned_string_tuple(tree, name):
    """The value of a module-level ``NAME = ("...", ...)`` assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if name in targets:
                return _tuple_of_strings(node.value)
    return None


def _src_files():
    """Repo-relative paths of every module under ``src/repro``."""
    for dirpath, dirnames, filenames in os.walk(
        os.path.join(SRC_ROOT, "repro")
    ):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.relpath(
                    os.path.join(dirpath, filename), REPO_ROOT
                )


def _iter_modules(package):
    """Dotted module names under one ``repro.*`` package, from disk."""
    root = os.path.join(SRC_ROOT, *package.split("."))
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            relative = os.path.relpath(
                os.path.join(dirpath, filename), SRC_ROOT
            )
            dotted = relative[: -len(".py")].replace(os.sep, ".")
            if dotted.endswith(".__init__"):
                dotted = dotted[: -len(".__init__")]
            yield dotted


def check_fingerprint_coverage(errors):
    """Invariant 1: watched modules are fingerprinted or exempted."""
    toolchain = _assigned_string_tuple(
        _parse("src/repro/study/trace_cache.py"), "_TOOLCHAIN_PACKAGES"
    )
    store_tree = _parse("src/repro/study/result_store.py")
    engine = _assigned_string_tuple(store_tree, "_ENGINE_PACKAGES")
    engine_modules = _assigned_string_tuple(store_tree, "_ENGINE_MODULES")
    for name, value in (
        ("trace_cache._TOOLCHAIN_PACKAGES", toolchain),
        ("result_store._ENGINE_PACKAGES", engine),
        ("result_store._ENGINE_MODULES", engine_modules),
    ):
        if value is None:
            errors.append(
                "%s is not a literal tuple of dotted names "
                "(the coverage check cannot read it)" % name
            )
    if errors:
        return
    covered_packages = tuple(toolchain) + tuple(engine)
    covered_modules = frozenset(engine_modules)
    for package in WATCHED_PACKAGES:
        for module in _iter_modules(package):
            if module in covered_modules or module in ORCHESTRATION_ONLY:
                continue
            if any(
                module == prefix or module.startswith(prefix + ".")
                for prefix in covered_packages
            ):
                continue
            errors.append(
                "module %s is in no fingerprint_sources list: add it to "
                "a fingerprinted package/module list (its edits must "
                "invalidate cached results) or to ORCHESTRATION_ONLY in "
                "tools/check_invariants.py (they must not)" % module
            )


def _has_int_constant(tree, name):
    """True when ``name`` is assigned an int literal (module or class)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if name in targets:
                value = node.value
                return isinstance(value, ast.Constant) and isinstance(
                    value.value, int
                )
    return False


def _names_constant(node, name):
    """True when an expression references ``name`` (Name or attribute)."""
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def _stamps_version(tree, constant):
    """True for a dict literal ``{"version": CONSTANT, ...}`` anywhere."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "version"
                    and _names_constant(value, constant)
                ):
                    return True
    return False


def _checks_version(tree, constant):
    """True for a comparison against ``CONSTANT`` anywhere (the unwrap)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left] + list(node.comparators)
            if any(_names_constant(op, constant) for op in operands):
                return True
    return False


def check_version_envelopes(errors):
    """Invariant 2a: every payload layout stamps + re-checks a version."""
    for relative_path, constant in VERSION_ENVELOPES:
        if not os.path.exists(os.path.join(REPO_ROOT, relative_path)):
            errors.append("%s: file missing" % relative_path)
            continue
        tree = _parse(relative_path)
        if not _has_int_constant(tree, constant):
            errors.append(
                "%s: no integer %s constant" % (relative_path, constant)
            )
            continue
        if not _stamps_version(tree, constant):
            errors.append(
                "%s: no payload dict stamps {'version': %s}"
                % (relative_path, constant)
            )
        if not _checks_version(tree, constant):
            errors.append(
                "%s: nothing compares a loaded payload against %s "
                "(stale envelopes would not fail closed)"
                % (relative_path, constant)
            )


def _class_defs(tree):
    return {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }


def _class_string_attr(class_node, attribute):
    """A class-level ``attribute = "..."`` string value, or None."""
    for node in class_node.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if attribute in targets:
                value = node.value
                if isinstance(value, ast.Constant) and isinstance(
                    value.value, str
                ):
                    return value.value
    return None


def _is_abstract_stub(function):
    """True for a method whose body only raises NotImplementedError."""
    body = function.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ):
        body = body[1:]  # the docstring
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    raised = body[0].exc
    if isinstance(raised, ast.Call):
        raised = raised.func
    return isinstance(raised, ast.Name) and raised.id == "NotImplementedError"


def _class_methods(class_node, classes):
    """Method names a class or its in-module bases implement (abstract
    ``raise NotImplementedError`` stubs do not count)."""
    methods = {
        item.name
        for item in class_node.body
        if isinstance(item, ast.FunctionDef) and not _is_abstract_stub(item)
    }
    for base in class_node.bases:
        if isinstance(base, ast.Name) and base.id in classes:
            methods |= _class_methods(classes[base.id], classes)
    return methods


def check_registered_walkers(errors):
    """Invariant 2b: every WALKERS entry is a kind-tagged walker class.

    Each registered class needs a string ``kind`` (its payloads are
    spec-tagged by it) and a ``reduce(summary)`` method implemented on
    the class or an in-module base; the protocol's abstract stub does
    not count.
    """
    relative_path = "src/repro/study/walkers.py"
    tree = _parse(relative_path)
    classes = _class_defs(tree)
    registered = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if "WALKERS" not in targets:
            continue
        for inner in ast.walk(node.value):
            if isinstance(inner, ast.Name) and inner.id in classes:
                registered.append(inner.id)
    if not registered:
        errors.append(
            "%s: found no walker classes in the WALKERS registry"
            % relative_path
        )
        return
    for name in registered:
        class_node = classes[name]
        if _class_string_attr(class_node, "kind") is None:
            errors.append(
                "%s: registered walker %s has no string `kind` class "
                "attribute (its payloads cannot be spec-tagged)"
                % (relative_path, name)
            )
        if "reduce" not in _class_methods(class_node, classes):
            errors.append(
                "%s: registered walker %s does not define reduce()"
                % (relative_path, name)
            )


#: Parser-builder functions in repro.cli whose add_argument() calls
#: define the documented CLI surface.
CLI_PARSER_BUILDERS = ("build_parser", "build_cache_parser",
                      "build_analyze_parser")

#: Markers delimiting the generated option reference in docs/CLI.md.
CLI_DOC_BEGIN = "<!-- generated:cli-options:begin -->"
CLI_DOC_END = "<!-- generated:cli-options:end -->"


def _cli_option_strings():
    """Every ``--option`` string a repro.cli parser builder defines."""
    tree = _parse("src/repro/cli.py")
    builders = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    options = set()
    # _add_cache_dir_option/_add_trace_out_option/_add_fault_option are
    # shared by every builder; charge their options to the common pool
    # rather than tracing call edges.
    for name in CLI_PARSER_BUILDERS + (
        "_add_cache_dir_option", "_add_trace_out_option",
        "_add_fault_option",
    ):
        builder = builders.get(name)
        if builder is None:
            continue
        for node in ast.walk(builder):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
                and node.args[0].value.startswith("--")
            ):
                options.add(node.args[0].value)
    return options


def check_cli_docs(errors):
    """Invariant 3: docs/CLI.md's generated section matches the parsers."""
    import re

    doc_path = "docs/CLI.md"
    full_path = os.path.join(REPO_ROOT, doc_path)
    if not os.path.exists(full_path):
        errors.append("%s: file missing" % doc_path)
        return
    with open(full_path, "r", encoding="utf-8") as handle:
        text = handle.read()
    begin = text.find(CLI_DOC_BEGIN)
    end = text.find(CLI_DOC_END)
    if begin < 0 or end < 0 or end < begin:
        errors.append(
            "%s: generated section markers %r / %r missing or reordered"
            % (doc_path, CLI_DOC_BEGIN, CLI_DOC_END)
        )
        return
    section = text[begin:end]
    documented = set(re.findall(r"`(--[a-z][a-z-]*)`", section))
    defined = _cli_option_strings()
    if not defined:
        errors.append("src/repro/cli.py: found no add_argument options")
        return
    for option in sorted(defined - documented):
        errors.append(
            "%s: option %s is defined in repro.cli but absent from the "
            "generated section" % (doc_path, option)
        )
    for option in sorted(documented - defined):
        errors.append(
            "%s: option %s is documented but no repro.cli parser defines "
            "it" % (doc_path, option)
        )


#: Protocol-surface modules whose public API must be fully docstringed.
#: Keep in sync with the negated ruff per-file-ignores pattern in
#: pyproject.toml (this check also verifies that sync).
DOCSTRING_MODULES = (
    "src/repro/obs/faults.py",
    "src/repro/obs/metrics.py",
    "src/repro/obs/runlog.py",
    "src/repro/obs/tracing.py",
    "src/repro/pipeline/kernel.py",
    "src/repro/sim/hierarchy_model.py",
    "src/repro/study/scheduler.py",
    "src/repro/study/result_store.py",
    "src/repro/study/supervisor.py",
    "src/repro/study/walkers.py",
)


def check_docstrings(errors):
    """Invariant 4: protocol surfaces docstring every public definition.

    Mirrors ruff rules D100-D103 over :data:`DOCSTRING_MODULES` so the
    invariant holds in environments without ruff, and checks that every
    module here is named by pyproject's negated ``D`` ignore pattern.
    """
    for relative_path in DOCSTRING_MODULES:
        if not os.path.exists(os.path.join(REPO_ROOT, relative_path)):
            errors.append("%s: file missing" % relative_path)
            continue
        tree = _parse(relative_path)
        if not ast.get_docstring(tree):
            errors.append("%s: missing module docstring" % relative_path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and not node.name.startswith(
                "_"
            ):
                if not ast.get_docstring(node):
                    errors.append(
                        "%s: public class %s has no docstring"
                        % (relative_path, node.name)
                    )
                for item in node.body:
                    if (
                        isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")
                        and not ast.get_docstring(item)
                    ):
                        errors.append(
                            "%s: public method %s.%s has no docstring"
                            % (relative_path, node.name, item.name)
                        )
        for node in tree.body:
            if (
                isinstance(node, ast.FunctionDef)
                and not node.name.startswith("_")
                and not ast.get_docstring(node)
            ):
                errors.append(
                    "%s: public function %s has no docstring"
                    % (relative_path, node.name)
                )
    pyproject = os.path.join(REPO_ROOT, "pyproject.toml")
    with open(pyproject, "r", encoding="utf-8") as handle:
        ignore_lines = [
            line for line in handle if line.lstrip().startswith('"!')
        ]
    pattern = "".join(ignore_lines)
    for relative_path in DOCSTRING_MODULES:
        stem = os.path.basename(relative_path)[: -len(".py")]
        if stem not in pattern:
            errors.append(
                "pyproject.toml: ruff docstring scope does not name %s "
                "(keep it in sync with DOCSTRING_MODULES)" % stem
            )


#: Modules carrying obs instrumentation: they must route timing and
#: counters through repro.obs rather than private stopwatches/dicts.
INSTRUMENTED_MODULES = (
    "src/repro/cli.py",
    "src/repro/pipeline/activity.py",
    "src/repro/pipeline/kernel.py",
    "src/repro/sim/tracefile.py",
    "src/repro/study/disk_store.py",
    "src/repro/study/result_store.py",
    "src/repro/study/scheduler.py",
    "src/repro/study/session.py",
    "src/repro/study/supervisor.py",
    "src/repro/study/trace_cache.py",
)


def _references_name(tree, name):
    """True when any expression references ``name`` (Name or attribute)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        if isinstance(node, ast.Name) and node.id == name:
            return True
    return False


def _imports_package(tree, package):
    """True when the module imports ``package`` or anything under it."""
    prefix = package + "."
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == package or alias.name.startswith(prefix):
                    return True
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == package or module.startswith(prefix):
                return True
    return False


def check_observability(errors):
    """Invariant 5: all timing goes through repro.obs, nowhere else."""
    obs_root = os.path.join("src", "repro", "obs") + os.sep
    for relative in _src_files():
        if relative.startswith(obs_root):
            continue
        if _references_name(_parse(relative), "perf_counter"):
            errors.append(
                "%s references perf_counter directly: time through "
                "repro.obs.tracing.span (the one sanctioned stopwatch) "
                "so the tracer and metrics registry observe it"
                % relative
            )
    for relative_path in INSTRUMENTED_MODULES:
        if not os.path.exists(os.path.join(REPO_ROOT, relative_path)):
            errors.append("%s: file missing" % relative_path)
            continue
        if not _imports_package(_parse(relative_path), "repro.obs"):
            errors.append(
                "%s: instrumented module no longer imports repro.obs "
                "(its spans/metrics must come from the shared layer)"
                % relative_path
            )


def _assigned_dict_string_keys(tree, name):
    """The string keys of a module-level ``NAME = {...}`` dict literal."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if name in targets and isinstance(node.value, ast.Dict):
                keys = []
                for key in node.value.keys:
                    if not isinstance(key, ast.Constant) or not isinstance(
                        key.value, str
                    ):
                        return None
                    keys.append(key.value)
                return tuple(keys)
    return None


def check_registered_schemes(errors):
    """Invariant 6: registered schemes are cross-checked and listed."""
    registry_path = "src/repro/core/compress.py"
    crosscheck_path = "src/repro/analysis/crosscheck.py"
    registered = _assigned_dict_string_keys(
        _parse(registry_path), "SCHEME_REGISTRY"
    )
    if registered is None:
        errors.append(
            "%s: SCHEME_REGISTRY is not a dict literal with string keys "
            "(the registration check cannot read it)" % registry_path
        )
        return
    crosschecked = _assigned_string_tuple(
        _parse(crosscheck_path), "DEFAULT_SCHEMES"
    )
    if crosschecked is None:
        errors.append(
            "%s: DEFAULT_SCHEMES is not a literal tuple of scheme names"
            % crosscheck_path
        )
        return
    for name in registered:
        if name not in crosschecked:
            errors.append(
                "%s: registered scheme %r is not in crosscheck."
                "DEFAULT_SCHEMES — it would ship without a soundness "
                "gate" % (registry_path, name)
            )
    for name in crosschecked:
        if name not in registered:
            errors.append(
                "%s: DEFAULT_SCHEMES names %r but SCHEME_REGISTRY does "
                "not register it" % (crosscheck_path, name)
            )
    if not _references_name(_parse("src/repro/cli.py"), "scheme_names"):
        errors.append(
            "src/repro/cli.py: `repro list` no longer references "
            "scheme_names (registered schemes must stay enumerable)"
        )


#: The fault-injection module registering POINTS and defining fire().
FAULTS_PATH = "src/repro/obs/faults.py"

#: The document that must catalog every registered fault point.
ROBUSTNESS_DOC = "docs/ROBUSTNESS.md"


def _fired_points():
    """``(relative_path, point)`` for every faults.fire("...") in src."""
    fired = []
    faults_relative = FAULTS_PATH.replace("/", os.sep)
    for relative in _src_files():
        if relative == faults_relative:
            continue
        for node in ast.walk(_parse(relative)):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "fire"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "faults"
            ):
                continue
            if (
                node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                fired.append((relative, node.args[0].value))
            else:
                fired.append((relative, None))
    return fired


def check_fault_points(errors):
    """Invariant 7: fire() sites and POINTS and the docs agree."""
    registered = _assigned_dict_string_keys(_parse(FAULTS_PATH), "POINTS")
    if registered is None:
        errors.append(
            "%s: POINTS is not a dict literal with string keys (the "
            "fault-point check cannot read it)" % FAULTS_PATH
        )
        return
    fired = _fired_points()
    for relative, point in fired:
        if point is None:
            errors.append(
                "%s: faults.fire() called with a non-literal point name "
                "(the point catalog must be statically checkable)"
                % relative
            )
        elif point not in registered:
            errors.append(
                "%s: faults.fire(%r) names a point that POINTS does not "
                "register — it would never fire" % (relative, point)
            )
    live = {point for _, point in fired if point is not None}
    for point in registered:
        if point not in live:
            errors.append(
                "%s: registered point %r has no faults.fire() call site "
                "under src/repro — chaos specs naming it pass vacuously"
                % (FAULTS_PATH, point)
            )
    doc_path = os.path.join(REPO_ROOT, ROBUSTNESS_DOC)
    if not os.path.exists(doc_path):
        errors.append("%s: file missing" % ROBUSTNESS_DOC)
        return
    with open(doc_path, "r", encoding="utf-8") as handle:
        text = handle.read()
    for point in registered:
        if "`%s`" % point not in text:
            errors.append(
                "%s: registered point %r is not documented (backticked) "
                "in the point catalog" % (ROBUSTNESS_DOC, point)
            )


#: The one module allowed to construct worker processes.
SUPERVISOR_PATH = "src/repro/study/supervisor.py"

#: Constructor names that start worker processes.
FORKING_CONSTRUCTORS = ("Pool", "Process")


def check_supervised_forking(errors):
    """Invariant 8: only the supervisor constructs Pool/Process objects."""
    for relative in _src_files():
        if relative == SUPERVISOR_PATH.replace("/", os.sep):
            continue
        for node in ast.walk(_parse(relative)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.attr if isinstance(func, ast.Attribute)
                else getattr(func, "id", None)
            )
            if name in FORKING_CONSTRUCTORS:
                errors.append(
                    "%s:%d constructs %s(...) outside %s — worker "
                    "processes must go through the SupervisedExecutor"
                    % (relative, node.lineno, name, SUPERVISOR_PATH)
                )


def main():
    errors = []
    check_fingerprint_coverage(errors)
    check_version_envelopes(errors)
    check_registered_walkers(errors)
    check_registered_schemes(errors)
    check_fault_points(errors)
    check_supervised_forking(errors)
    check_cli_docs(errors)
    check_docstrings(errors)
    check_observability(errors)
    if errors:
        for error in errors:
            print("check_invariants: %s" % error, file=sys.stderr)
        print(
            "check_invariants: %d invariant violation(s)" % len(errors),
            file=sys.stderr,
        )
        return 1
    print("check_invariants: all repo invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
