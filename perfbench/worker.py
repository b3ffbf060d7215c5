"""One benchmark run in a fresh interpreter.

run.py starts this script, with PYTHONPATH holding the checkout's src/, as

    worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR [probe]

Until it prints "ready" it loads only markovnorm (through guard.py), the
tracer when TRACE is 1, and for norm-real forks the helper process: the
time to "ready" is the set-up time.  Then, unless "probe" is given, it
loads the workload loops, runs WORKLOAD for SECONDS and prints one JSON
line of results.
"""

import sys

import guard


def main():
    workload, seed, seconds, trace, out_dir, *probe = sys.argv[1:]
    tracer = None
    if trace == "1":
        # Loaded here, not at the top, so that untraced set-up leaves it out.
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    helper = guard.Guard(tracer) if workload == "norm-real" else None
    print("ready", flush=True)
    if probe:
        if helper is not None:
            helper.close()
        return
    import loops  # the harness, loaded once set-up is over

    loops.run(workload, int(seed), float(seconds), tracer, helper, out_dir)


if __name__ == "__main__":
    main()
