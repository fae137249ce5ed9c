"""The reduced golden set against its committed digests (``scripts/golden.py``).

Every output of the reduced set, regenerated here, must match the manifest
byte for byte.  The digests hold on the manifest's platform only, so a
different platform fails by name rather than skipping.
"""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def manifest():
    return json.loads(Path(golden.MANIFEST).read_text(encoding="utf-8"))


def test_platform_is_the_manifests():
    want, here = manifest()["platform"], golden.platform_info()
    assert want == here, "\n".join(f"{key}: manifest {want.get(key)!r}, here {here.get(key)!r}"
                                   for key in sorted(set(want) | set(here))
                                   if want.get(key) != here.get(key))


def test_reduced_outputs_match_their_digests(tmp_path):
    faults = golden.compare(manifest(), "reduced", golden.digests("reduced", tmp_path))
    assert not faults, "\n".join(faults)


def test_another_platform_is_named(monkeypatch):
    here = golden.platform_info()
    monkeypatch.setattr(golden, "platform_info", lambda: {**here, "numpy": "0.0"})
    faults = golden.compare(manifest(), "reduced", manifest()["reduced"])
    assert faults == [f"platform numpy: manifest {here['numpy']!r}, here '0.0'"]
