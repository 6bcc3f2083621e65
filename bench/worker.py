"""One benchmark worker in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED MODE [SECONDS [SPANS_FILE]]

MODE is "setup" (stop once set up), "run" (time passes over the item
table for SECONDS, then check the outputs and run the known-defect
probes) or "trace" (the same, with every other pass traced, the spans of
the last traced pass written to SPANS_FILE, and the tracer self-test at
the end).  Prints one JSON object as its last line.

Set-up ends when varqfi.cli is imported, the inputs exist and one warm-up
call outside the table has returned; the parent process times it from
before it started this interpreter.  Until then nothing is imported that
the program does not import itself.

Between items the worker times the calibration kernel of
bench/calibration.py and measures each item in units of the kernel's
time around it.

Before each pass after the first, the worker empties the program's
function caches and repeats the warm-up call, so every pass starts from
the state set-up leaves, as a fresh CLI invocation would.  A new pass
starts only while it is expected to end within SECONDS of set-up, once
MIN_PASSES untraced (and, when tracing, MIN_PASSES traced) passes ran.
"""

import sys
import time

MIN_PASSES = 2


def time_items(workload, items, tracer, sampler):
    """Run the items in a closed loop.

    Returns (outputs, seconds per item, calibration units per item,
    errors).  The sampler times the calibration kernel between items,
    outside the items' own timings.
    """
    outputs, item_s, marks, errors = [], [], [], []
    clock = time.perf_counter
    for k, item in enumerate(items):
        marks.append(sampler.maybe_sample())
        if tracer is not None:
            tracer.item_id = k
        t0 = clock()
        try:
            out = workload.run(item)
        except Exception as exc:  # a failing item is counted, the pass goes on
            out = None
            errors.append(f"item {k}: {type(exc).__name__}: {exc}")
        item_s.append(clock() - t0)
        outputs.append(out)
    item_cal = [t / sampler.around(j) for t, j in zip(item_s, marks)]
    return outputs, item_s, item_cal, errors


def reset(workload):
    """Empty every functools cache of the loaded varqfi modules, then warm up."""
    for name, module in list(sys.modules.items()):
        if name == "varqfi" or name.startswith("varqfi."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    workload.warm_up()


def main(workload_name, seed, mode, seconds=0.0, spans_file=None):
    t_import = time.perf_counter()
    import varqfi.cli

    t_imported = time.perf_counter()
    scipy_loaded = "scipy" in sys.modules

    import numpy as np  # loaded by varqfi.cli already

    import workloads

    workload = workloads.WORKLOADS[workload_name]
    items = workload.make(np.random.default_rng(seed))
    workload.warm_up()
    setup_done = time.perf_counter()

    import hashlib
    import json
    import resource

    result = {
        "setup_done": setup_done,
        "cli.import_s": t_imported - t_import,
        "cli.scipy_loaded": int(scipy_loaded),
        "varqfi_file": varqfi.cli.__file__,
    }
    if mode == "setup":
        print(json.dumps(result))
        return

    import calibration

    if mode == "trace":
        import tracer as tracing

    deadline = setup_done + float(seconds)
    plain, traced, layers, digests = [], [], [], set()
    first_outputs = None
    while True:
        tracer = None
        if mode == "trace" and len(traced) < len(plain):
            tracer = tracing.Tracer()
        if plain:
            reset(workload)
        sampler = calibration.Sampler()
        t_pass = time.perf_counter()
        if tracer is not None:
            tracer.install()
        outputs, item_s, item_cal, errors = time_items(workload, items, tracer, sampler)
        if tracer is not None:
            tracer.uninstall()
        pass_s = time.perf_counter() - t_pass
        record = {
            "item_s": item_s,
            "item_cal": item_cal,
            "errors": errors,
            "cal_s": float(np.median(sampler.samples)),
        }
        if tracer is None:
            plain.append(record)
        else:
            traced.append(record)
            metrics = tracer.layer_metrics()
            metrics.update(dict.fromkeys(workloads.PROPERTIES, 0.0))
            metrics.update(workload.properties(items))
            layers.append(metrics)
            tracer.save(spans_file)
        digest = hashlib.sha256()
        for out in outputs:
            digest.update(b"-" if out is None else np.asarray(out).tobytes())
        digests.add(digest.hexdigest())
        if first_outputs is None:
            first_outputs = outputs
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        enough = len(plain) >= MIN_PASSES and (mode != "trace" or len(traced) >= MIN_PASSES)
        if enough and time.perf_counter() + pass_s > deadline:
            break

    failures, rel_err_max = workload.check(items, first_outputs)
    if len(digests) != 1:
        failures.append("outputs differ between passes over the same inputs")
    result.update(
        plain=plain,
        traced=traced,
        layers=layers,
        check_failures=failures,
        rel_err_max=rel_err_max,
        peak_rss_mb=rss_kb / 1024.0,
        probes=workloads.run_probes(),
    )
    if mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
        workloads.self_test()
        tracer.uninstall()
        counts = tracer.layer_metrics()
        result["selftest"] = {
            key: (counts[key], want) for key, want in workloads.SELF_TEST_COUNTS.items()
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3], *sys.argv[4:])
