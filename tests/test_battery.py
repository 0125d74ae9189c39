"""Battery structure, parameter checks, canonical serialization, and the
built-in defaults."""
import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from mtstreams.stats.battery import (
    BUILTIN_BATTERIES,
    FAMILIES,
    MAX_DRAWS,
    MINI_CRUSH_V1,
    Battery,
    TestDefinition,
    battery_sha256,
    dump_battery,
    load_battery,
)

from support import mutations


def test_builtin_battery_shape():
    assert MINI_CRUSH_V1.name == "mini-crush-v1"
    assert MINI_CRUSH_V1.threshold == 1e-10
    assert MINI_CRUSH_V1.test_ids == (
        "linearcomp.r0",
        "linearcomp.r29",
        "collisionover.a",
        "collisionover.b",
        "closepairs.a",
        "closepairs.b",
        "randomwalk.a",
        "randomwalk.b",
        "serial.a",
    )
    assert BUILTIN_BATTERIES["mini-crush-v1"] is MINI_CRUSH_V1


def test_builtin_battery_parameters_are_in_regime():
    by_id = {t.id: t.params for t in MINI_CRUSH_V1.tests}
    for key in ("collisionover.a", "collisionover.b"):
        p = by_id[key]
        assert p["d"] ** p["t"] >= 4 * p["n"], key
    assert by_id["linearcomp.r0"]["n_bits"] == 50000
    assert by_id["linearcomp.r0"]["n_bits"] >= 2 * 19937 + 1000


def test_battery_and_entries_keep_value_semantics_through_pickle_and_copy():
    # Campaign workers receive the battery pickled; a copy runs the constructor again.
    for battery in (MINI_CRUSH_V1, pickle.loads(pickle.dumps(MINI_CRUSH_V1)), copy.deepcopy(MINI_CRUSH_V1)):
        assert battery == MINI_CRUSH_V1 and battery.tests == MINI_CRUSH_V1.tests
        for t, t0 in zip(battery.tests, MINI_CRUSH_V1.tests):
            assert (t.draws, t.statistics) == (t0.draws, t0.statistics)
    assert Battery("mini-crush-v1", 1e-9, MINI_CRUSH_V1.tests) != MINI_CRUSH_V1
    entry = MINI_CRUSH_V1.tests[0]
    # Equality compares the id, family and parameters: draws and statistics follow from them.
    assert entry == TestDefinition(entry.id, entry.family, dict(entry.params))
    assert entry != TestDefinition(entry.id, entry.family, {"n_bits": 50001, "bit_offset": 0})
    assert entry != (entry.id, entry.family, entry.params)
    for value in (MINI_CRUSH_V1, entry):  # hashed by their fields, which hold a dict
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    for value, field in ((MINI_CRUSH_V1, "tests"), (entry, "draws"), (entry, "id")):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        entry.extra = 1
    assert entry.draws == 50000


def test_battery_rejects_duplicate_ids():
    t = TestDefinition("x", "SerialUniformity", {"n": 1000, "cells": 10})
    with pytest.raises(ValueError, match="unique"):
        Battery("b", 1e-10, (t, t))


def test_battery_rejects_bad_threshold():
    t = TestDefinition("x", "SerialUniformity", {"n": 1000, "cells": 10})
    for bad in (0.0, 0.5, 1.0, -1e-10):
        with pytest.raises(ValueError, match="threshold"):
            Battery("b", bad, (t,))


def test_battery_refuses_an_empty_test_list(tmp_path):
    with pytest.raises(ValueError, match="a battery needs at least one test"):
        Battery("b", 1e-10, ())
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"name": "b", "threshold": 1e-10, "tests": []}))
    with pytest.raises(ValueError, match="a battery needs at least one test"):
        load_battery(str(path))


def test_battery_rejects_unknown_family_and_bad_params():
    with pytest.raises(ValueError, match="unknown family"):
        Battery("b", 1e-10, (TestDefinition("x", "Mystery", {}),))
    with pytest.raises(ValueError, match="test x"):
        Battery(
            "b", 1e-10, (TestDefinition("x", "SerialUniformity", {"n": 5, "cells": 10}),)
        )
    with pytest.raises(ValueError, match="test x"):
        Battery("b", 1e-10, (TestDefinition("x", "SerialUniformity", {"n": 1000}),))


def test_dump_battery_is_stable_and_parseable():
    text = dump_battery(MINI_CRUSH_V1)
    assert text.endswith("\n")
    assert dump_battery(MINI_CRUSH_V1) == text
    doc = json.loads(text)
    assert doc["name"] == "mini-crush-v1"
    assert doc["threshold"] == 1e-10
    assert [t["id"] for t in doc["tests"]] == list(MINI_CRUSH_V1.test_ids)


def test_battery_sha256_tracks_content():
    base = battery_sha256(MINI_CRUSH_V1)
    assert len(base) == 64
    assert battery_sha256(MINI_CRUSH_V1) == base
    variant = Battery(MINI_CRUSH_V1.name, 1e-9, MINI_CRUSH_V1.tests)
    assert battery_sha256(variant) != base


def test_load_battery_builtin_and_file_roundtrip(tmp_path):
    assert load_battery("mini-crush-v1") is MINI_CRUSH_V1
    path = tmp_path / "custom.json"
    path.write_text(dump_battery(MINI_CRUSH_V1))
    loaded = load_battery(str(path))
    assert loaded.name == MINI_CRUSH_V1.name
    assert loaded.threshold == MINI_CRUSH_V1.threshold
    assert loaded.test_ids == MINI_CRUSH_V1.test_ids
    assert dump_battery(loaded) == dump_battery(MINI_CRUSH_V1)
    assert battery_sha256(loaded) == battery_sha256(MINI_CRUSH_V1)


def test_load_battery_unknown_name_errors():
    with pytest.raises(FileNotFoundError, match="unknown battery"):
        load_battery("maxi-crush-v9")


def test_load_battery_malformed_file_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "b", "threshold": 1e-10, "tests": [{"id": "x"}]}')
    with pytest.raises(ValueError, match="malformed battery file"):
        load_battery(str(path))


def _battery_file(tmp_path, params, family="SerialUniformity"):
    path = tmp_path / "battery.json"
    doc = {"name": "b", "threshold": 1e-10, "tests": [{"id": "x", "family": family, "params": params}]}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "family, params, message",
    [
        ("SerialUniformity", {"n": 1024.7, "cells": 16}, "parameter n must be an integer"),
        ("SerialUniformity", {"n": 1024.0, "cells": 16}, "parameter n must be an integer"),
        ("LinearComp", {"n_bits": 50000, "bit_offset": True}, "parameter bit_offset must be an integer"),
        ("LinearComp", {"n_bits": "50000", "bit_offset": 0}, "parameter n_bits must be an integer"),
        ("SerialUniformity", {"n": 1024, "cells": 16, "bogus": 7}, "unexpected keyword argument 'bogus'"),
        ("SerialUniformity", {"n": 1024}, "missing 1 required keyword-only argument: 'cells'"),
        ("RandomWalk1", {"walks": 1000, "steps": 8, "n": 1}, "unexpected keyword argument 'n'"),
    ],
)
def test_load_battery_takes_exactly_the_familys_integer_parameters(tmp_path, family, params, message):
    with pytest.raises(ValueError, match=f"test x: .*{message}"):
        load_battery(_battery_file(tmp_path, params, family))


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"threshold": "1e-10"}, "threshold must be a number"),
        ({"threshold": True}, "threshold must be a number"),
        ({"name": 7}, "battery name must be a string"),
        ({"id": 'a"b'}, "test id 'a\"b' must be letters"),
        ({"id": 5}, "test id 5 must be letters"),
    ],
)
def test_load_battery_refuses_a_name_threshold_or_id_results_cannot_carry(tmp_path, edit, message):
    doc = json.loads(dump_battery(MINI_CRUSH_V1))
    if "id" in edit:
        doc["tests"][0]["id"] = edit["id"]
    else:
        doc.update(edit)
    path = tmp_path / "battery.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_battery(str(path))


def test_load_battery_keeps_accepted_parameters_as_given(tmp_path):
    params = {"n": 1024, "cells": 16}
    battery = load_battery(_battery_file(tmp_path, params))
    assert battery.tests[0].params == params
    assert battery.tests[0].draws == 1024
    assert json.loads(dump_battery(battery))["tests"][0]["params"] == params


def test_load_battery_bounds_the_draws_per_status(tmp_path):
    # Definitions only: nothing reads, so nothing is allocated.
    assert MAX_DRAWS == 2**28
    at_bound = load_battery(_battery_file(tmp_path, {"n": MAX_DRAWS, "cells": 1024}))
    assert at_bound.tests[0].draws == MAX_DRAWS
    for family, params in (
        ("SerialUniformity", {"n": MAX_DRAWS + 1, "cells": 1024}),
        ("SerialUniformity", {"n": 10**10, "cells": 1024}),
        ("ClosePairs", {"n": 2**26, "t": 8}),
        ("RandomWalk1", {"walks": 2**22, "steps": 4096}),
        ("LinearComp", {"n_bits": 2**30, "bit_offset": 0}),
    ):
        with pytest.raises(ValueError, match="test x: reads .* words, more than MAX_DRAWS"):
            load_battery(_battery_file(tmp_path, params, family))


def test_builtin_entries_know_their_draws():
    draws = {t.id: t.draws for t in MINI_CRUSH_V1.tests}
    assert draws == {
        "linearcomp.r0": 50000,
        "linearcomp.r29": 50000,
        "collisionover.a": 2**14 + 1,
        "collisionover.b": 2**13 + 3,
        "closepairs.a": 2**14,
        "closepairs.b": 3 * 2**12,
        "randomwalk.a": 40000,
        "randomwalk.b": 320000,
        "serial.a": 10**6,
    }


@pytest.mark.parametrize(
    "family, params, message",
    [
        ("Nope", {}, "unknown family"),
        ("CollisionOver", {"n": 2**14, "d": 2, "t": 2}, "sparse regime"),
        ("CollisionOver", {"n": 1023, "d": 1024, "t": 2}, "n must be >= 1024"),
        ("CollisionOver", {"n": 2**14, "d": 1024, "t": 0}, "t >= 1"),
        ("CollisionOver", {"n": 2**14, "d": 2**32 + 1, "t": 1}, "2\\^32"),
        ("CollisionOver", {"n": 2**14, "d": 2**16, "t": 4}, "too large"),
        ("CollisionOver", {"n": 2**14, "d": 2, "t": 10**9}, "too large"),
        ("RandomWalk1", {"walks": 1000, "steps": 9}, "steps must be even"),
        ("RandomWalk1", {"walks": 1000, "steps": 4098}, "steps must be even"),
        ("RandomWalk1", {"walks": 999, "steps": 8}, "walks"),
        ("LinearComp", {"n_bits": 50000, "bit_offset": 32}, "bit_offset"),
        ("LinearComp", {"n_bits": 50000, "bit_offset": -1}, "bit_offset"),
        ("LinearComp", {"n_bits": 999, "bit_offset": 0}, "n_bits"),
        ("ClosePairs", {"n": 255, "t": 2}, "n must be >= 256"),
        ("ClosePairs", {"n": 256, "t": 9}, "t must be in"),
        ("SerialUniformity", {"n": 100, "cells": 16}, "10 \\* cells"),
        ("SerialUniformity", {"n": 10 * (2**32 + 1), "cells": 2**32 + 1}, "2\\^32"),
    ],
)
def test_family_parameter_bounds(family, params, message):
    with pytest.raises(ValueError, match=f"test x: .*{message}"):
        TestDefinition("x", family, params)


def test_cell_counts_reach_2_pow_32():
    # A 32-bit word addresses 2^32 cells. SerialUniformity needs 10 words a
    # cell, so its 2^32 cells pass the family's bounds but not MAX_DRAWS.
    assert TestDefinition("x", "CollisionOver", {"n": 2**14, "d": 2**32, "t": 1}).draws == 2**14
    draws_of, _ = FAMILIES["SerialUniformity"]
    assert draws_of(n=10 * 2**32, cells=2**32) == 10 * 2**32
    with pytest.raises(ValueError, match="MAX_DRAWS"):
        TestDefinition("x", "SerialUniformity", {"n": 10 * 2**32, "cells": 2**32})


def test_battery_module_loads_no_numpy_or_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys, mtstreams.stats.battery; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@settings(max_examples=300, deadline=None)
@given(data=mutations(dump_battery(MINI_CRUSH_V1).encode("ascii")))
@example(data=b"[" * 3000 + b"]" * 3000)
def test_a_mutated_battery_file_raises_only_value_or_file_errors(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated_battery.json"
    path.write_bytes(data)
    try:
        load_battery(str(path))
    except (ValueError, FileNotFoundError) as exc:
        assert str(path) in str(exc)
