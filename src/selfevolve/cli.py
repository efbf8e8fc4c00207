"""Operator CLI: launch/resume experiments, pure chain simulations, analysis."""

from __future__ import annotations

import sys
from contextlib import contextmanager

import click

# what a command exits with on each error, and its message's prefix. An error
# is named by its module and class, so that a command loads only the modules
# it runs: an error can only come from a module already loaded.
_EXITS = {("engine", "ConfigInvalid"): (2, "invalid config: "),
          ("store", "ConfigDrift"): (3, ""), ("store", "CorruptLog"): (4, ""),
          ("store", "StoreUnavailable"): (5, "store unavailable: "),
          ("markov", "DegenerateChain"): (1, ""), ("markov", "SingularChain"): (1, "")}


@contextmanager
def _exit_on_error():
    """Exits with the code _EXITS gives an error the body raises."""
    try:
        yield
    except Exception as e:
        for (module, name), (code, prefix) in _EXITS.items():
            kind = getattr(sys.modules.get(f"selfevolve.{module}"), name, None)
            if kind is not None and isinstance(e, kind):
                click.echo(f"error: {prefix}{e}", err=True)
                sys.exit(code)
        raise


@click.group()
def main():
    """Self-evolving reasoning experiment engine."""


@main.command("run")
@click.argument("config_path", type=click.Path(exists=True))
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
    write_run_reports(store, run_id, output_dir / "reports" / run_id)
    click.echo(run_id)


@main.command("resume")
@click.argument("run_id")
@click.option("--runs-dir", type=click.Path(), default="out/runs", show_default=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="Config file the run must still match: its problems, run seed, trial "
                   "count, controller, prompts and mock or backend (exit 3 if not).")
@click.option("--reports-dir", type=click.Path(), default=None)
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
    if reports_dir is not None:
        from .reports import write_run_reports
        write_run_reports(store, run_id, reports_dir)
    click.echo(run_id)


@main.command("analyze")
@click.argument("run_id")
@click.option("--runs-dir", type=click.Path(), default="out/runs", show_default=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
def cmd_analyze(run_id, runs_dir, out_dir):
    """Recompute metric tables and charts from a run's event log, up to the
    iteration each problem's trials have all reached."""
    from .reports import write_run_reports
    from .store import RunStore
    with _exit_on_error():
        written = write_run_reports(RunStore(runs_dir), run_id, out_dir)
    for path in written:
        click.echo(str(path))


@main.group("simulate")
def cmd_simulate():
    """Pure Markov-chain simulations and closed-form analyses."""


def _prob_option(name, **kw):
    return click.option(name, type=click.FloatRange(0.0, 1.0), required=True, **kw)


@cmd_simulate.command("stationary")
@_prob_option("--p-ic")
@_prob_option("--p-ci")
def sim_stationary(p_ic, p_ci):
    """Stationary split and mixing rate of the two-state chain."""
    from . import markov
    params = markov.TransitionParams(p_ic=p_ic, p_ci=p_ci)
    with _exit_on_error():
        pi = markov.stationary_distribution(params)
    click.echo(f"pi_c={pi.pi_c:.6f} pi_i={pi.pi_i:.6f} "
               f"lambda2={markov.convergence_rate(params):.6f}")


@cmd_simulate.command("trajectory")
@_prob_option("--p-ic")
@_prob_option("--p-ci")
@click.option("--start", type=click.Choice(["C", "I"]), default="I", show_default=True)
@click.option("--steps", type=click.IntRange(min=0), default=50, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def sim_trajectory(p_ic, p_ci, start, steps, seed):
    """One seeded sample path of the two-state chain."""
    from . import markov
    params = markov.TransitionParams(p_ic=p_ic, p_ci=p_ci)
    click.echo("".join(markov.simulate_chain(params, start, steps, seed)))


@cmd_simulate.command("absorb")
@_prob_option("--alpha")
@_prob_option("--beta")
@_prob_option("--y-c0")
@_prob_option("--y-i0")
@click.option("--accept-limit", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--start", type=click.Choice(["S1", "S2"]), default="S2", show_default=True)
def sim_absorb(alpha, beta, y_c0, y_i0, accept_limit, start):
    """Closed-form absorption probabilities of the simplified 4-state chain."""
    from . import markov
    acp = markov.AbsorbingChainParams(alpha=alpha, beta=beta, y_c0=y_c0,
                                      y_i0=y_i0, accept_limit=accept_limit)
    with _exit_on_error():
        result = markov.absorption_probabilities(acp, start)
    click.echo(f"p_correct_exit={result.p_correct_exit:.6f} "
               f"p_incorrect_exit={result.p_incorrect_exit:.6f}")


@cmd_simulate.command("verdep")
@_prob_option("--alpha")
@_prob_option("--beta")
@_prob_option("--y-c0")
@_prob_option("--y-i0")
@click.option("--accept-limit", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--reject-limit", type=click.IntRange(min=1), default=None)
@click.option("--start", type=click.Choice(["C", "I"]), default="I", show_default=True)
@click.option("--samples", type=click.IntRange(min=1), default=10000, show_default=True)
@click.option("--max-iterations", type=click.IntRange(min=1), default=10000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--csv", "csv_path", type=click.Path(), default=None,
              help="Also write exit fractions as CSV.")
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
    click.echo(" ".join(f"{k.lower()}={v:.6f}" for k, v in fractions.items()))
    if csv_path:
        from .reports import write_metrics_csv
        write_metrics_csv(csv_path, [{"exit": k, "fraction": v} for k, v in fractions.items()],
                          ["exit", "fraction"])


if __name__ == "__main__":
    main()
