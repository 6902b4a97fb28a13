"""Workload definitions: generated configs and the CLI calls each workload makes.

The configs are written out by the benchmark, so the program sees only a
generated config, the workload seed (``--seed``) and a path count
(``--paths``).  Why each workload exists is recorded in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

# Dyadic shell cascade with gradient jump noise at V-norm weight 1: the
# settings of demos/configs/dyadic_gradient.ini and acceptance claim c06.
DYADIC_INI = """\
[model]
name = dyadic
modes = 12
k0 = 2.0
visc = 1.0
u0 = e1:1.0

[measure]
family = compound_gaussian
rate = 5.0
mean = 0.0
sd = 0.4

[coefficient]
g_family = gradient
g_theta = 1.1180339887498949

[solver]
horizon = 1.0
dt = 0.005
window = 0.1
budget = 0.5
level = 8.0

[ensemble]
paths = 4
seed = 20260809

[verify]
structure_samples = 20000
condition_samples = 2000
noise_paths = 2000
apriori_paths = 60

[converge]
iterations = 10
paths = 20
order_paths = 10
"""

# Navier-Stokes on the torus at M=8, dealiased (grid 32, 288 coefficients).
# The Wiener part is additive: with u0 = e1 and purely diagonal noise the
# state never leaves one shear mode, B stays 0 and Picard stops after two
# sweeps, so the convection and transform layers would do no real work.
NSE2D_INI = """\
[model]
name = nse2d
modes = 8
visc = 0.5
dealias = true
u0 = e1:1.0

[measure]
family = truncated_power
c = 0.5
alpha = 1.2
eps_low = 0.05
r_max = 1.5

[wiener]
dims = 20

[coefficient]
g_family = diagonal
g_sigma = 0.2
psi_family = additive
psi_sigma = 0.5

[solver]
horizon = 0.2
dt = 0.002
window = 0.05
budget = 0.5
level = 8.0

[ensemble]
paths = 2
seed = 7

[verify]
structure_samples = 3000
condition_samples = 500
noise_paths = 500
apriori_paths = 0
"""

CONFIGS = {"dyadic": DYADIC_INI, "nse2d": NSE2D_INI}

# suites each report must hold, all with pass: true
SUITES = {
    "verify": ("structure", "coefficients", "noise_stats", "energy_ledger",
               "apriori"),
    "converge": ("contraction", "strong_order"),
}


@dataclass(frozen=True)
class Call:
    """One ``levyflow`` CLI call: subcommand, config name, path count."""

    command: str
    config: str
    paths: int | None = None    # --paths, for simulate
    solved: int = 0             # ensemble paths the call is configured to solve

    def argv(self, config_path: str, seed: int | None, out: str) -> list[str]:
        args = [self.command, "--config", config_path, "--out", out]
        if seed is not None:
            args += ["--seed", str(seed)]
        if self.paths is not None:
            args += ["--paths", str(self.paths)]
        return args


@dataclass(frozen=True)
class Workload:
    calls: tuple[Call, ...]
    # Repeat r of a run uses CLI seed ``seed * subseeds + r % subseeds``:
    # more distinct inputs per run for workloads whose cost depends on the
    # noise, while every input still runs at least twice for the byte
    # comparison.
    subseeds: int = 1
    # False: no --seed, every run uses the configs' own [ensemble] seed
    seeded: bool = True

    @property
    def simulate(self) -> bool:
        return self.calls[0].command == "simulate"

    def cli_seed(self, seed: int, repeat: int) -> int | None:
        if not self.seeded:
            return None
        return seed * self.subseeds + repeat % self.subseeds


WORKLOADS = {
    # Python work per step: solver, cutoffs, noise dispatch, cross terms.
    # Picard sweeps per path vary by about 40% with the noise, so a run
    # spreads 4 x 36 paths over four seeds.
    "dyadic_simulate": Workload(
        calls=(Call("simulate", "dyadic", paths=36, solved=36),),
        subseeds=4),
    # small single-state FFTs in nse2d every step.  Short repeats of 2
    # paths, so that few of them span a change of the host's speed.
    "nse2d_simulate": Workload(
        calls=(Call("simulate", "nse2d", paths=2, solved=2),),
        subseeds=2),
    # the certification suites: large batched transforms, direct solves on
    # refined grids, many short noise realizations.  ``solved`` counts the
    # configured apriori, contraction and strong-order ensembles.  The
    # statistical suites fail on a few percent of seeds (see README.md), so
    # certify keeps the configs' own seeds.
    "certify": Workload(
        calls=(Call("verify", "nse2d", solved=0),
               Call("verify", "dyadic", solved=60),
               Call("converge", "dyadic", solved=30)),
        seeded=False),
}


# Functions the traced run wraps, as "module:attribute.path".  Each gives
# the per-layer metrics <module>.<attribute.path>.calls and .self_s.
LAYER_TARGETS = (
    "levyflow.config:load_config",
    "levyflow.cutoffs:Cutoff.factor",
    "levyflow.models:shell_apply",
    "levyflow.models:shell_trilinear",
    "levyflow.models:shell_structure_search",
    "levyflow.nse2d:nse_b_apply",
    "levyflow.nse2d:nse_trilinear",
    "levyflow.nse2d:nse_structure_search",
    "levyflow.nse2d:estimate_a0",
    "levyflow.noise:sample_realization",
    "levyflow.noise:jump_coefficient",
    "levyflow.noise:wiener_apply",
    "levyflow.noise:compensator_drift",
    "levyflow.noise:condition_report",
    "levyflow.spaces:PathSegment.from_states",
    "levyflow.solver:global_solve",
    "levyflow.solver:concatenate_windows",
    "levyflow.solver:picard_local",
    "levyflow.solver:solve_linearized",
    "levyflow.solver:linear_step",
    "levyflow.solver:baseline_direct",
    "levyflow.solver:strong_order_study",
    "levyflow.diagnostics:cross_term_series",
    "levyflow.diagnostics:budget_indicator_integral",
    "levyflow.diagnostics:energy_ledger",
    "levyflow.diagnostics:moment_bound_report",
    "levyflow.cli:_write_trajectory",
    "levyflow.cli:_write_json",
    "levyflow.cli:_verify_structure",
    "levyflow.cli:_verify_coefficients",
    "levyflow.cli:_verify_noise_stats",
    "levyflow.cli:_verify_ledger",
    "levyflow.cli:_verify_apriori",
    "levyflow.cli:_contraction_run",
)

# a top-level call of either starts one path; its spans share a path id
PATH_ROOTS = ("solver.global_solve", "solver.baseline_direct")

ROOT_SPAN = "bench.root"

# numpy.fft entry points counted during the traced run only
FFT_FUNCS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
FFT_KEY = "nse2d.fft"


def layer_name(target: str) -> str:
    mod, attr = target.split(":")
    return mod.rsplit(".", 1)[-1] + "." + attr
