#!/usr/bin/env python
"""Extending CAROL to a brand-new compressor (the paper's portability claim).

The paper argues that — unlike surrogate frameworks that need a hand-built
lightweight compressor per codec — FXRZ/CAROL support a new compressor by
just collecting execution data, and Compressor Behavior 3 adds that when no
tailored surrogate exists, full compression on window-matched samples plus
calibration fills the gap.

This example walks that recipe with the cuSZp-style codec (not one of the
paper's evaluated four):

1. the codec is one entry in ``repro/compressors/registry.py`` (any
   ``LossyCompressor`` subclass is added the same way);
2. its ratio estimator is :class:`SampledFullSurrogate` — the one SECRE's
   SZx and ZFP estimators are too — given the codec and a block-window
   sampler: no codec-specific surrogate code at all;
3. CAROL trains on surrogate + calibration curves as usual and then serves
   fixed-ratio requests against the new codec.

Run: python examples/extend_new_compressor.py
"""

import numpy as np

from repro import CarolFramework, get_compressor, get_surrogate, load_dataset, load_field
from repro.core.metrics import estimation_error

SHAPE = (20, 28, 28)
CODEC = "cuszp"


def main() -> None:
    codec = get_compressor(CODEC)
    field = load_field("miranda/viscosity", shape=SHAPE)
    ebs = np.geomspace(1e-3, 1e-1, 8) * field.value_range

    # Step 1+2: the generic fallback surrogate estimates f(e) with no
    # codec-specific code (it runs the real codec on ~10% of the data).
    surrogate = get_surrogate(CODEC)
    est, t_est = surrogate.estimate_curve(field.data, ebs)
    true = np.array([codec.compression_ratio(field.data, eb) for eb in ebs])
    print(f"fallback surrogate on {CODEC}: alpha = "
          f"{estimation_error(true, est):.1f}% in {t_est*1000:.1f} ms")

    # Step 3: CAROL end to end on the new codec.
    train = load_dataset("miranda", shape=SHAPE)[:5]
    carol = CarolFramework(
        compressor=CODEC, rel_error_bounds=np.geomspace(1e-3, 1e-1, 10), n_iter=6
    )
    report = carol.fit(train)
    print(f"CAROL fitted on {CODEC}: collection {report.collection_seconds:.2f}s, "
          f"training {report.training_seconds:.2f}s")

    test = load_field("miranda/pressure", shape=SHAPE, seed=31)
    # targets inside the codec's achievable band on this data (~2-5.5x)
    for target in (3.0, 4.0, 5.0):
        result, pred = carol.compress_to_ratio(test.data, target)
        print(f"  target {target:5.1f}x -> eb {pred.error_bound:.4g} "
              f"-> achieved {result.ratio:5.1f}x")

    print("\nno cuSZp-specific surrogate was written — the registry entry hands")
    print("the codec and a block sampler to SampledFullSurrogate, as SZx and ZFP do.")


if __name__ == "__main__":
    main()
