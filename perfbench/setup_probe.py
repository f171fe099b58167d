"""One cold set-up of istanet in a fresh interpreter, timed from inside it.

    python3 perfbench/setup_probe.py SRC MANIFEST build MODEL_SPEC_JSON
    python3 perfbench/setup_probe.py SRC MANIFEST load CHECKPOINT

Times the import of numpy and istanet, load_manifest, and building the model
(ISTANet from a config) or loading it (load_checkpoint). Then it takes
calibration probes in the same interpreter (see calib.py) and prints the raw
and the calibrated seconds. Interpreter start-up is not included.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

PROBES = 9


def main():
    src, manifest_path, kind, arg = sys.argv[1:5]
    sys.path.insert(0, src)
    import numpy as np
    from istanet.checkpoint import load_checkpoint
    from istanet.data import load_manifest
    from istanet.model import ISTANet, ModelConfig

    load_manifest(manifest_path)
    if kind == "build":
        spec = json.loads(arg)
        ISTANet(ModelConfig.from_dict(spec["model"]), rng=np.random.default_rng(spec["seed"]))
    elif kind == "load":
        load_checkpoint(arg)
    else:
        raise SystemExit(f"setup_probe: unknown kind {kind!r}")
    raw = time.perf_counter() - T0

    import calib
    # Set-up is interpreter work, and this process has the default malloc
    # settings, under which the large-array part would page-fault.
    probes = calib.Calibrator(parts=("loop",))
    probes.probe(PROBES)
    # the first probe runs cold code paths
    ref_ms = statistics.median(probes.ms[1:])
    print(repr(raw), repr(raw * probes.nominal_ms / ref_ms))


if __name__ == "__main__":
    main()
