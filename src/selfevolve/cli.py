"""Operator CLI: launch/resume experiments, pure chain simulations, analysis."""

import argparse
import os
import sys
from contextlib import contextmanager, suppress

# what a command exits with on each error, and its message's prefix. An error
# is named by its module and class, so that a command loads only the modules
# it runs: an error can only come from a module already loaded.
_EXITS = {("engine", "ConfigInvalid"): (2, "invalid config: "),
          ("store", "ConfigDrift"): (3, ""), ("store", "CorruptLog"): (4, ""),
          ("store", "StoreUnavailable"): (5, "store unavailable: "),
          ("markov", "DegenerateChain"): (1, ""), ("markov", "SingularChain"): (1, "")}


@contextmanager
def _exit_on_error():
    """Exits with the code _EXITS gives an error the body raises, and with 5 on
    an OSError: the store and config wrap theirs, so it is a report's write."""
    try:
        yield
    except OSError as e:
        print(f"error: cannot write: {e}", file=sys.stderr)
        sys.exit(5)
    except Exception as e:
        for (module, name), (code, prefix) in _EXITS.items():
            kind = getattr(sys.modules.get(f"selfevolve.{module}"), name, None)
            if kind is not None and isinstance(e, kind):
                print(f"error: {prefix}{e}", file=sys.stderr)
                sys.exit(code)
        raise


def main(argv: list[str] | None = None) -> None:
    """Self-evolving reasoning experiment engine."""
    args = vars(_parser().parse_args(argv))
    try:
        args.pop("command")(**args)
    except KeyboardInterrupt:
        sys.exit("Aborted!")  # on stderr, with exit status 1


def cmd_run(config_path):
    """Launch an experiment described by a config file; prints the run id."""
    from .config import read_config
    from .engine import start_run
    from .reports import write_run_reports
    from .store import RunStore
    with _exit_on_error():
        description, output_dir = read_config(config_path)
        store = RunStore(output_dir / "runs")
        run_id = start_run(store, description)
        print(run_id, flush=True)  # the run is committed, whatever its reports do
        write_run_reports(store, run_id, output_dir / "reports" / run_id)


def cmd_resume(run_id, runs_dir, config_path, reports_dir):
    """Complete the remaining trials of a run; a completed run is a no-op."""
    import dataclasses
    from .engine import resume_experiment, run_inputs
    from .store import ConfigDrift, RunStore
    with _exit_on_error():
        store = RunStore(runs_dir)
        if config_path is not None:
            from .config import read_config
            # the run's parallelism and store_sync stand, whatever the file says
            run = run_inputs(store.manifest(run_id))
            live = run_inputs(read_config(config_path)[0])
            if dataclasses.replace(live, parallelism=run.parallelism,
                                   store_sync=run.store_sync) != run:
                raise ConfigDrift("live config differs from the manifest snapshot")
        resume_experiment(store, run_id)
        print(run_id, flush=True)
        if reports_dir is not None:
            from .reports import write_run_reports
            write_run_reports(store, run_id, reports_dir)


def cmd_analyze(run_id, runs_dir, out_dir):
    """Recompute metric tables and charts from a run's event log, up to the
    iteration each problem's trials have all reached."""
    from .reports import write_run_reports
    from .store import RunStore
    with _exit_on_error():
        written = write_run_reports(RunStore(runs_dir), run_id, out_dir)
    for path in written:
        print(path)


def sim_stationary(p_ic, p_ci):
    """Stationary split and mixing rate of the two-state chain."""
    from . import markov
    params = markov.TransitionParams(p_ic=p_ic, p_ci=p_ci)
    with _exit_on_error():
        pi = markov.stationary_distribution(params)
    print(f"pi_c={pi.pi_c:.6f} pi_i={pi.pi_i:.6f} "
          f"lambda2={markov.convergence_rate(params):.6f}")


def sim_absorb(alpha, beta, y_c0, y_i0, accept_limit, start):
    """Closed-form absorption probabilities of the simplified 4-state chain."""
    from . import markov
    acp = markov.AbsorbingChainParams(alpha=alpha, beta=beta, y_c0=y_c0,
                                      y_i0=y_i0, accept_limit=accept_limit)
    with _exit_on_error():
        result = markov.absorption_probabilities(acp, start)
    print(f"p_correct_exit={result.p_correct_exit:.6f} "
          f"p_incorrect_exit={result.p_incorrect_exit:.6f}")


def sim_verdep(alpha, beta, y_c0, y_i0, accept_limit, reject_limit, start,
               samples, max_iterations, seed, csv_path):
    """Monte Carlo of the full verification-dependent chain with exit statistics."""
    from . import markov
    acp = markov.AbsorbingChainParams(
        alpha=alpha, beta=beta, y_c0=y_c0, y_i0=y_i0,
        accept_limit=accept_limit, reject_limit=reject_limit)
    counts = {"Accepted": 0, "Rejected": 0, "Budget": 0}
    for i in range(samples):
        counts[markov.simulate_verdep_chain(acp, seed + i, max_iterations, start)[0]] += 1
    fractions = {k: v / samples for k, v in counts.items()}
    print(" ".join(f"{k.lower()}={v:.6f}" for k, v in fractions.items()))
    if csv_path:
        from .reports import write_metrics_csv
        with _exit_on_error():
            write_metrics_csv(csv_path, [{"exit": k, "fraction": v}
                                         for k, v in fractions.items()], ["exit", "fraction"])


def _checked(convert, test, what):
    """An argument type: convert's value of the text, if test passes it."""
    def parse(text):
        with suppress(ValueError):
            if test(value := convert(text)):
                return value
        raise argparse.ArgumentTypeError(f"Invalid value {text!r}: not {what}")
    return parse


def _parser():
    """The command tree: each command's parser sets `command` to its function."""
    default = "[default: %(default)s]"
    probability = dict(type=_checked(float, lambda v: 0 <= v <= 1, "a number from 0 to 1"),
                       required=True, metavar="P", help="from 0 to 1")
    count = dict(type=_checked(int, lambda v: v >= 1, "an integer of at least 1"),
                 metavar="N", help="at least 1 " + default)
    existing_path = _checked(str, os.path.exists, "an existing path")

    def add(commands, name, run, doc=None):
        doc = doc or run.__doc__
        sub = commands.add_parser(name, help=doc, description=doc, allow_abbrev=False)
        sub.set_defaults(command=run)
        return sub

    parser = argparse.ArgumentParser(prog="selfevolve", description=main.__doc__)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    add(commands, "run", cmd_run).add_argument("config_path", type=existing_path)
    resume, analyze = add(commands, "resume", cmd_resume), add(commands, "analyze", cmd_analyze)
    for sub in (resume, analyze):
        sub.add_argument("run_id")
        sub.add_argument("--runs-dir", default="out/runs", metavar="PATH", help=default)
    resume.add_argument("--config", dest="config_path", type=existing_path, metavar="PATH",
                        help="Config file the run must still match: its problems, run seed, trial "
                             "count, controller, prompts and mock or backend (exit 3 if not).")
    resume.add_argument("--reports-dir", metavar="PATH")
    analyze.add_argument("--out", dest="out_dir", required=True, metavar="PATH")
    simulate = add(commands, "simulate", None, "Pure Markov-chain simulations and closed-form "
                   "analyses.").add_subparsers(metavar="COMMAND", required=True)
    stationary = add(simulate, "stationary", sim_stationary)
    for flag in ("--p-ic", "--p-ci"):
        stationary.add_argument(flag, **probability)
    for name, run, starts in (("absorb", sim_absorb, ["S1", "S2"]),
                              ("verdep", sim_verdep, ["C", "I"])):
        chain = add(simulate, name, run)
        for flag in ("--alpha", "--beta", "--y-c0", "--y-i0"):
            chain.add_argument(flag, **probability)
        chain.add_argument("--accept-limit", default=5, **count)
        chain.add_argument("--start", choices=starts, default=starts[1], help=default)
    chain.add_argument("--reject-limit", **count)  # verdep, the loop's last chain
    for flag in ("--samples", "--max-iterations"):
        chain.add_argument(flag, default=10000, **count)
    chain.add_argument("--seed", type=int, default=0, help=default)
    chain.add_argument("--csv", dest="csv_path", help="Also write exit fractions as CSV.")
    return parser


if __name__ == "__main__":
    main()
