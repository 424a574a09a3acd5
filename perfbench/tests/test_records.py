"""The stored reconstruct inputs round-trip exactly and match their manifest.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json

import numpy as np
import pytest

from elshape.forward import receiver_angles, ring_sources
from elshape.records import ScatterRecord

import workloads
from make_records import MANIFEST, RECORD_SPECS, RECORDS_DIR


@pytest.mark.parametrize("name", sorted(RECORD_SPECS))
def test_record_round_trips_exactly(name, tmp_path):
    path = RECORDS_DIR / f"{name}.json"
    rec = ScatterRecord.load(path)
    assert rec.to_json_dict() == json.loads(path.read_text())
    rec.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_records_match_their_provenance():
    manifest = json.loads(MANIFEST.read_text())
    assert sorted(manifest) == sorted(RECORD_SPECS)
    for name, rec in workloads.load_records().items():
        entry = manifest[name]
        ring = entry["source_ring"]
        assert rec.rho == entry["rho"]
        assert rec.sys.omega == entry["lame"]["omega"]
        assert tuple(rec.aperture) == tuple(entry["aperture"])
        assert rec.n_receivers == entry["n_receivers"]
        np.testing.assert_array_equal(
            rec.receivers, receiver_angles(entry["n_receivers"], tuple(entry["aperture"]))
        )
        assert rec.sources == ring_sources(
            ring["n_sources"], ring["radius"], tuple(ring["polarization"])
        )


def test_a_changed_record_is_refused(tmp_path, monkeypatch):
    for path in RECORDS_DIR.glob("*.json"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    kite = tmp_path / "kite.json"
    kite.write_text(kite.read_text().replace("0.", "1.", 1))
    monkeypatch.setattr(workloads, "RECORDS_DIR", tmp_path)
    monkeypatch.setattr(workloads, "MANIFEST", tmp_path / "manifest.json")
    with pytest.raises(workloads.RecordError):
        workloads.load_records()
