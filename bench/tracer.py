"""Span tracer installed from outside the program, in traced job processes only.

Each wrapped name is patched where the program looks it up: a module
attribute (`gamow.cli.evolve_operator`, `gamow.exact.rref`,
`gamow.smatrix.quad`, ...) or a class attribute for methods and properties.
A span is a list

    [name, start, end, parent index, calls, busy seconds]

kept in memory for the whole job and handed back when the job ends.  A
name's layer is the text before its first dot.  Calls that run thousands
of times per job (`TimePolynomialOperator.value`) are folded into one span
per parent, whose `calls` and `busy` add up; every other call is a span of
its own with calls = 1 and busy = end - start.

Counts taken from arguments and results (system sizes, matrix entries,
denominator degrees) are computed after the wrapped call returns, and the
time that takes is itself recorded as a `trace.observe` span, so it shows
as tracing cost instead of inflating the caller's self time.  Counts land in
`counters`.
"""

import importlib
import time

_perf = time.perf_counter

ROOT = "cli.main"

# (module, attribute, span name, how): "span" records every call, "fold"
# folds calls per parent, "property" wraps a property's getter, "count"
# counts the calls of the integrands the factory returns.
TARGETS = [
    ("gamow.cli", "cmd_evolve", "cli.cmd_evolve", "span"),
    ("gamow.cli", "cmd_exp_check", "cli.cmd_exp_check", "span"),
    ("gamow.cli", "cmd_residue", "cli.cmd_residue", "span"),
    ("gamow.cli", "cmd_basis", "cli.cmd_basis", "span"),
    ("gamow.cli", "_resolve_run_config", "cli.resolve_run_config", "span"),
    ("gamow.cli", "_build_operator", "cli.build_operator", "span"),
    ("gamow.cli", "_dump_json", "cli.dump_json", "span"),
    ("gamow.cli", "_write_output", "cli.write_output", "span"),
    ("gamow.cli", "evolve_operator", "operators.evolve_operator", "span"),
    ("gamow.cli", "is_pure_exponential", "operators.is_pure_exponential", "span"),
    ("gamow.cli", "exponential_state_operator", "operators.exponential_state_operator", "span"),
    ("gamow.cli", "operator_from_coefficients", "operators.operator_from_coefficients", "span"),
    ("gamow.cli", "exponentiality_constraints", "operators.constraints", "span"),
    ("gamow.cli", "solve_binomial_recursion", "operators.recursion", "span"),
    ("gamow.cli", "binomial_family_matches_nullspace", "operators.family_match", "span"),
    ("gamow.cli", "verify_restriction_equivalence", "operators.restriction", "span"),
    ("gamow.cli", "exponential_subspace_basis", "operators.basis", "span"),
    ("gamow.cli", "load_model_file", "smatrix.load", "span"),
    ("gamow.cli", "decomposition_check", "smatrix.decomposition_check", "span"),
    ("gamow.operators.TimePolynomialOperator", "value", "operators.value", "fold"),
    ("gamow.operators.ConstraintSystem", "solution_dimension", "operators.solution_dimension", "property"),
    ("gamow.operators.ConstraintSystem", "to_json_dict", "operators.to_json", "span"),
    ("gamow.operators.RestrictionReport", "to_json_dict", "operators.to_json", "span"),
    ("gamow.exact", "rref", "exact.rref", "span"),
    ("gamow.exact.RationalFunction", "derivative", "exact.derivative", "span"),
    ("gamow.smatrix", "direct_contour_integral", "smatrix.direct", "span"),
    ("gamow.smatrix", "background_integral", "smatrix.background", "span"),
    ("gamow.smatrix", "residue_core", "smatrix.residue_core", "span"),
    ("gamow.smatrix", "quad", "smatrix.quad", "span"),
    ("gamow.smatrix", "_amplitude_integrand", "smatrix.integrand", "count"),
]


def _resolve(path):
    """Import `path` as a module, or as module.Class."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


def layer_of(name):
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self.missing = []
        self._stack = [-1]
        self._folded = {}
        self._rref_inputs = set()

    # -- recording ----------------------------------------------------------

    def _open(self, name):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1], 1, 0.0])
        self._stack.append(index)
        return index

    def _close(self, index, start, end):
        self._stack.pop()
        record = self.spans[index]
        record[1], record[2], record[5] = start, end, end - start

    def _fold(self, name, start, end):
        key = (self._stack[-1], name)
        index = self._folded.get(key)
        if index is None:
            index = self._folded[key] = len(self.spans)
            self.spans.append([name, start, end, self._stack[-1], 0, 0.0])
        record = self.spans[index]
        record[2] = end
        record[4] += 1
        record[5] += end - start

    def _observe(self, observer, args, result):
        start = _perf()
        observer(args, result)
        self._fold("trace.observe", start, _perf())

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name, value):
        self.counters[name] = max(self.counters.get(name, value), value)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, observer=None):
        def traced(*args, **kwargs):
            index = self._open(name)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, start, _perf())
            if observer is not None:
                self._observe(observer, args, result)
            return result

        return traced

    def _folded_call(self, name, fn):
        def traced(*args, **kwargs):
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self._fold(name, start, _perf())

        return traced

    def run_root(self, fn, *args):
        """Run the job under the root span; returns (result, seconds)."""
        index = self._open(ROOT)
        start = _perf()
        try:
            result = fn(*args)
        finally:
            end = _perf()
            self._close(index, start, end)
        return result, end - start

    # -- observers ------------------------------------------------------------

    def _observe_constraints(self, args, system):
        self.count("constraint_systems")
        self.count("constraint_equations", system.equation_count)
        self.count("constraint_unknowns", system.variable_count)

    def _observe_rref(self, args, result):
        rows = [tuple(row) for row in args[0]]
        self.count("rref_entries", len(rows) * (len(rows[0]) if rows else 0))
        key = hash(tuple(rows))
        if key not in self._rref_inputs:
            self._rref_inputs.add(key)
            self.count("rref_distinct")

    def _observe_derivative(self, args, result):
        self.maximum("derivative_max_den_degree", result.denominator.degree)

    def _observe_decomposition(self, args, report):
        self.count("decompositions")
        self.count("unconverged", not report.converged)
        self.maximum("discrepancy_max", report.discrepancy)

    def _integrand_counter(self, fn):
        def counting_factory(*args, **kwargs):
            integrand = fn(*args, **kwargs)

            def counted(energy):
                self.counters["integrand_evals"] = self.counters.get("integrand_evals", 0) + 1
                return integrand(energy)

            return counted

        return counting_factory

    # -- installation -------------------------------------------------------

    def install(self):
        """Patch every target that exists; record the ones that do not."""
        observers = {
            "operators.constraints": self._observe_constraints,
            "exact.rref": self._observe_rref,
            "exact.derivative": self._observe_derivative,
            "smatrix.decomposition_check": self._observe_decomposition,
        }
        for owner_path, attr, name, how in TARGETS:
            try:
                owner = _resolve(owner_path)
            except (ImportError, AttributeError):
                self.missing.append(f"{owner_path}.{attr}")
                continue
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            if how == "count":
                wrapped = self._integrand_counter(original)
            elif how == "fold":
                wrapped = self._folded_call(name, original)
            elif how == "property":
                wrapped = property(self._span(name, original.fget))
            else:
                wrapped = self._span(name, original, observers.get(name))
            setattr(owner, attr, wrapped)


def self_times(spans):
    """Self seconds of each span: busy time minus the busy time of its children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            covered[span[3]] += span[5]
    return [span[5] - covered[i] for i, span in enumerate(spans)]
