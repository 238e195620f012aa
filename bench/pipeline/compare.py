"""Result-file helpers for run.py: the metric catalog (BENCHMARK.json), the
parent-versus-change comparison, and the result.schema.json check."""

import json
import os
import statistics

# Absolute slack on top of a metric's bound: a set-up of a tenth of a second
# moves by more than its bound with the host alone.
SLACK = {"setup_s": 0.1}


def load_catalog(root):
    """Metric names, units, directions and bounds, from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        doc = json.load(f)
    return {"end_to_end": doc["end_to_end"], "per_layer": doc["per_layer"]}


def load_runs(path):
    """Untraced, full-size runs of a results file, grouped by workload."""
    with open(path) as f:
        doc = json.load(f)
    by_workload = {}
    for run in doc["runs"]:
        if not run["trace"] and not run["smoke"]:
            by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, metric, claimed):
    """One (workload, metric) row.

    A claimed metric is improved when there are at least ten pairs, the
    change wins at least 9 of 10 of them (ties count for neither side), and
    the medians differ by more than the parent's interquartile range. Every
    metric is regressed when the change's median is worse than the parent's
    by more than the metric's bound (and by more than its SLACK). It is
    unresolved, unless every change run beats every parent run, when the
    parent's own spread is wider than the bound, or when the change is worse
    by more than that spread: a slowdown the noise does not explain but the
    bound still admits is not reported as unchanged.
    """
    lower = metric["better"] == "lower"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse_abs = c_med - p_med if lower else p_med - c_med
    if p_med == 0:
        worse = 0.0 if c_med == p_med else float("inf")
    else:
        worse = worse_abs / p_med
    q1, q3 = quartiles(parent)
    spread = (q3 - q1) / p_med if p_med else 0.0

    def better(c, p):
        return c < p if lower else c > p

    if worse > metric["bound"] and worse_abs > SLACK.get(metric["name"], 0):
        return "regressed", worse, spread
    if claimed:
        pairs = list(zip(parent, change))
        wins = sum(better(c, p) for p, c in pairs)
        if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
                and abs(c_med - p_med) > q3 - q1):
            return "improved", worse, spread
        return "unresolved", worse, spread
    if (spread > metric["bound"] or worse > spread) and not all(
            better(c, p) for c in change for p in parent):
        return "unresolved", worse, spread
    return "unchanged", worse, spread


def compare_files(parent_path, change_path, claims, catalog):
    """Print one row per (workload, metric); 2 if anything regressed."""
    parent, change = load_runs(parent_path), load_runs(change_path)
    claimed = {tuple(c.split(":", 1)) for c in claims}
    regressed = False
    print("%-12s %-18s %12s %12s %8s %8s  %s" % (
        "workload", "metric", "parent", "change", "worse", "spread",
        "verdict"))
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        for metric in catalog["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            v, worse, spread = verdict(p, c, metric,
                                       (workload, name) in claimed)
            regressed |= v == "regressed"
            print("%-12s %-18s %12.6g %12.6g %+7.1f%% %7.1f%%  %s" % (
                workload, name, statistics.median(p), statistics.median(c),
                100 * worse, 100 * spread, v))
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        if c_failed > p_failed:
            regressed = True
        print("%-12s %-18s %12d %12d %18s  %s" % (
            workload, "failed ops", p_failed, c_failed, "",
            "regressed" if c_failed > p_failed else "unchanged"))
        same = {r["digest"] for r in p_runs} == {r["digest"] for r in c_runs}
        print("%-12s %-18s %12s %12s %18s  %s" % (
            workload, "output digest", p_runs[0]["digest"],
            c_runs[0]["digest"], "", "same" if same else "differs"))
    for workload, name in sorted(claimed):
        if workload not in parent or workload not in change:
            print("claim %s:%s has no runs on both sides" % (workload, name))
    return 2 if regressed else 0


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "integer": int, "number": (int, float)}


def _check(value, schema, where, errors):
    kind = schema.get("type")
    if kind and (not isinstance(value, _TYPES[kind]) or
                 (kind in ("integer", "number") and isinstance(value, bool))):
        errors.append("%s: expected %s" % (where, kind))
        return
    if "const" in schema and value != schema["const"]:
        errors.append("%s: expected %r" % (where, schema["const"]))
    if "enum" in schema and value not in schema["enum"]:
        errors.append("%s: %r not in %r" % (where, value, schema["enum"]))
    if "minimum" in schema and value < schema["minimum"]:
        errors.append("%s: %r below %r" % (where, value, schema["minimum"]))
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in value:
                errors.append("%s: missing %s" % (where, key))
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in props:
                _check(item, props[key], where + "." + key, errors)
            elif extra is False:
                errors.append("%s: unexpected %s" % (where, key))
            elif isinstance(extra, dict):
                _check(item, extra, where + "." + key, errors)
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _check(item, schema["items"], "%s[%d]" % (where, i), errors)


def validate_schema(doc, schema_path):
    """Errors of `doc` against the JSON-Schema subset result.schema.json
    uses (type, const, enum, minimum, required, properties,
    additionalProperties, items)."""
    with open(schema_path) as f:
        schema = json.load(f)
    errors = []
    _check(doc, schema, "$", errors)
    return errors
