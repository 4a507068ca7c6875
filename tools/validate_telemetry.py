#!/usr/bin/env python3
"""Schema validator for hemlock-telemetry-v1 JSON documents.

Validates the telemetry snapshot exported by HEMLOCK_STATS=json[:path].
CI's LD_PRELOAD telemetry smoke runs it over the shim's export, so a
malformed exporter fails the build, not the downstream dashboard.

Usage:
  validate_telemetry.py <file.json> [<file.json> ...]
  validate_telemetry.py --self-test
"""

import json
import sys

HIST_KEYS = {"count": int, "p50": int, "p99": int, "max": int}

LOCK_KEYS = {
    "name": str,
    "acquires": int,
    "contended": int,
    "try_failures": int,
    "parks": int,
    "wakes": int,
    "escalations": int,
    "shared_acquires": int,
    "demotions": int,
    "wait_ns": dict,
    "hold_ns": dict,
}

GOVERNOR_KEYS = {
    "cpus": int,
    "waiters": int,
    "parked": int,
    "wake_syscalls": int,
    "wake_gate_skips": int,
    "park_sleeps": int,
    "park_wakeups": int,
    "baseline_retries": int,
    "escalations": int,
    "census_high_water": dict,
}

EPOCH_KEYS = {
    "epoch": int,
    "pending": int,
    "freed": int,
    "advances": int,
    "advance_blocked": int,
}

COND_KEYS = {
    "adopted": int,
    "waits": int,
    "timeouts": int,
    "signals": int,
    "broadcasts": int,
    "requeued": int,
    "chain_wakes": int,
}


def check_keys(obj, spec, where, errors):
    if not isinstance(obj, dict):
        errors.append(f"{where}: expected object, got {type(obj).__name__}")
        return
    for key, typ in spec.items():
        if key not in obj:
            errors.append(f"{where}: missing key {key!r}")
        elif not isinstance(obj[key], typ):
            errors.append(
                f"{where}.{key}: expected {typ.__name__}, got "
                f"{type(obj[key]).__name__}"
            )
        elif typ is int and obj[key] < 0:
            errors.append(f"{where}.{key}: negative counter {obj[key]}")


def validate_telemetry(doc):
    """Returns a list of problems; empty means valid."""
    errors = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("schema") != "hemlock-telemetry-v1":
        return [f"schema is {doc.get('schema')!r}, want hemlock-telemetry-v1"]
    if not isinstance(doc.get("pid"), int):
        errors.append("pid: missing or not an int")

    locks = doc.get("locks")
    if not isinstance(locks, list):
        errors.append("locks: missing or not an array")
    else:
        for i, lock in enumerate(locks):
            where = f"locks[{i}]"
            check_keys(lock, LOCK_KEYS, where, errors)
            if isinstance(lock, dict):
                for hist in ("wait_ns", "hold_ns"):
                    if isinstance(lock.get(hist), dict):
                        check_keys(lock[hist], HIST_KEYS,
                                   f"{where}.{hist}", errors)

    check_keys(doc.get("governor"), GOVERNOR_KEYS, "governor", errors)
    gov = doc.get("governor")
    if isinstance(gov, dict) and isinstance(gov.get("census_high_water"),
                                            dict):
        check_keys(gov["census_high_water"], {"max": int, "bucket": int},
                   "governor.census_high_water", errors)
    check_keys(doc.get("epoch"), EPOCH_KEYS, "epoch", errors)
    if "cond" in doc:
        check_keys(doc["cond"], COND_KEYS, "cond", errors)
    return errors


def validate_file(path):
    with open(path) as f:
        doc = json.load(f)
    return [f"{path}: {e}" for e in validate_telemetry(doc)]


def minimal_doc():
    hist = {"count": 1, "p50": 1023, "p99": 4095, "max": 3000}
    return {
        "schema": "hemlock-telemetry-v1",
        "pid": 1234,
        "locks": [
            {
                "name": "minikv:central",
                "acquires": 10,
                "contended": 2,
                "try_failures": 0,
                "parks": 1,
                "wakes": 1,
                "escalations": 0,
                "shared_acquires": 3,
                "demotions": 4,
                "wait_ns": dict(hist),
                "hold_ns": dict(hist),
            }
        ],
        "governor": {
            "cpus": 1,
            "waiters": 0,
            "parked": 0,
            "wake_syscalls": 5,
            "wake_gate_skips": 2,
            "park_sleeps": 5,
            "park_wakeups": 5,
            "baseline_retries": 0,
            "escalations": 3,
            "census_high_water": {"max": 2, "bucket": 17},
        },
        "epoch": {
            "epoch": 4,
            "pending": 0,
            "freed": 12,
            "advances": 4,
            "advance_blocked": 0,
        },
        "cond": {
            "adopted": 1,
            "waits": 8,
            "timeouts": 1,
            "signals": 4,
            "broadcasts": 2,
            "requeued": 3,
            "chain_wakes": 3,
        },
    }


def self_test():
    """Planted fixtures: the valid document must pass, each mutation
    must fail — proving the checks are not vacuous."""
    failures = []

    doc = minimal_doc()
    errs = validate_telemetry(doc)
    if errs:
        failures.append(f"valid document rejected: {errs}")

    no_cond = minimal_doc()
    del no_cond["cond"]
    if validate_telemetry(no_cond):
        failures.append("cond block should be optional")

    bad_schema = minimal_doc()
    bad_schema["schema"] = "hemlock-telemetry-v0"
    if not validate_telemetry(bad_schema):
        failures.append("wrong schema accepted")

    missing_key = minimal_doc()
    del missing_key["locks"][0]["contended"]
    if not validate_telemetry(missing_key):
        failures.append("missing lock key accepted")

    wrong_type = minimal_doc()
    wrong_type["governor"]["parked"] = "3"
    if not validate_telemetry(wrong_type):
        failures.append("string counter accepted")

    negative = minimal_doc()
    negative["epoch"]["freed"] = -1
    if not validate_telemetry(negative):
        failures.append("negative counter accepted")

    bad_hist = minimal_doc()
    del bad_hist["locks"][0]["wait_ns"]["p99"]
    if not validate_telemetry(bad_hist):
        failures.append("histogram missing p99 accepted")

    if failures:
        print("SELF-TEST FAIL:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("SELF-TEST PASS: valid fixture accepted, 6 mutations rejected")
    return 0


def main():
    args = sys.argv[1:]
    if args == ["--self-test"]:
        return self_test()
    if not args:
        print(__doc__)
        return 2
    problems = []
    for path in args:
        problems.extend(validate_file(path))
    if problems:
        for p in problems:
            print(f"FAIL: {p}")
        return 1
    print(f"PASS: {len(args)} file(s) conform to hemlock-telemetry-v1")
    return 0


if __name__ == "__main__":
    sys.exit(main())
