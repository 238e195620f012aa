#!/usr/bin/env python3
"""Check tests/schema_corpus/ against schemas/ with the reference JSON
Schema Draft 2020-12 validator (python jsonschema).

Every corpus file is named <schema>.<valid|invalid>.<what>.json, and the
reference validator must reach the verdict the name states -- the same
verdict the C++ validator must reach in SchemaCorpus (tests/test_schema.cpp).
Exits 0 when every verdict matches, 1 otherwise, and 77 (ctest's skip code
for this test) when jsonschema is not installed.

    python3 tests/schema_corpus/reference_check.py
"""
import json
import os
import sys

try:
    import jsonschema
except ImportError:
    print("jsonschema is not installed: reference cross-check skipped")
    sys.exit(77)

HERE = os.path.dirname(os.path.abspath(__file__))
SCHEMAS = os.path.join(HERE, "..", "..", "schemas")


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def main():
    failures = 0
    names = sorted(n for n in os.listdir(HERE) if n.endswith(".json"))
    for name in names:
        schema_name, verdict = name.split(".")[:2]
        schema = load(os.path.join(SCHEMAS, schema_name + ".schema.json"))
        jsonschema.Draft202012Validator.check_schema(schema)
        errors = list(jsonschema.Draft202012Validator(schema).iter_errors(
            load(os.path.join(HERE, name))))
        if (verdict == "valid") != (not errors):
            failures += 1
            print("%s: jsonschema says %s%s" % (
                name, "invalid: " if errors else "valid",
                errors[0].message if errors else ""))
    print("%d corpus document(s), %d verdict mismatch(es)" %
          (len(names), failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
