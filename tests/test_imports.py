"""Import contract and package export tables.

Every package except ``repro.scale`` exports lazily through
:func:`repro.lazy_exports`, so a serving run loads the serving stack
and nothing else.  These tests pin both halves:

* the contract, in one fresh interpreter per serving config:
  ``import repro.scale`` stays under a module budget and loads none of
  the off-path or feature-gated modules below, building a simulator
  loads exactly the models its config switches on, and input
  generation and every serving action import no ``repro`` module (so
  no import cost hides in a timed action); ``repro serve`` loads none
  of the off-path or gated modules either;
* the tables: every exported name resolves through its package to the
  object its defining submodule holds, and no module inside ``repro``
  imports a name through a lazily exporting package.
"""

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
PACKAGES = ["repro"] + sorted(
    f"repro.{path.parent.name}"
    for path in (SRC / "repro").glob("*/__init__.py"))

#: Modules (and packages, with everything under them) that no serving
#: run executes.
OFF_PATH = (
    "repro.phoenix", "repro.opt", "repro.validation", "repro.cli",
    "repro.apu.assembler", "repro.apu.rvv", "repro.apu.profiler",
    "repro.apu.device", "repro.baselines.cpu",
    "repro.monitor.dashboard", "repro.monitor.diff",
    "repro.telemetry.flame", "repro.telemetry.render",
    "repro.obs.golden", "repro.obs.timeline",
)
#: The models one config switch turns on.  A serving build loads a
#: feature's modules exactly when its config enables the feature:
#: integrity calibrates its costs on a timing-only ``APUCore``.
FEATURE_MODULES = {
    "integrity": ("repro.apu", "repro.apu.core", "repro.apu.dma",
                  "repro.apu.dtypes", "repro.apu.gvml", "repro.apu.memory",
                  "repro.core.estimator"),
    "faults": ("repro.faults.injector",),
    "ecc": ("repro.ecc.model", "repro.ecc.codecs"),
}
GATED = frozenset(name for names in FEATURE_MODULES.values()
                  for name in names)
#: ``repro.*`` modules ``import repro.scale`` may load (113 when every
#: package imported all of its submodules eagerly).
MAX_SERVING_MODULES = 53

_CONTRACT_SCRIPT = """
import dataclasses, json, sys

def loaded():
    return {name for name in sys.modules if name.startswith("repro")}

steps = {}
import repro.scale
steps["import"] = sorted(loaded())

def step(name, action):
    before = loaded()
    action()
    steps[name] = sorted(loaded() - before)

from repro.ecc import ECCConfig
from repro.faults import FaultPlan
from repro.scale import ScaleConfig, ScaleSimulator, \\
    golden_autoscale_config, golden_autoscale_fault_config
from repro.serve import bursty_arrival_times, golden_ecc_config, \\
    golden_integrity_config, golden_serve_config, poisson_arrival_times

def vectorized(serve, **changes):
    return dataclasses.replace(serve, engine="vectorized", **changes)

def elastic_all():
    # The elastic fault golden with ECC on top: every model at once.
    elastic = golden_autoscale_fault_config()
    return dataclasses.replace(elastic, serve=vectorized(
        elastic.serve, ecc=ECCConfig(enabled=True)))

CONFIGS = {
    # Fault-free vectorized columns: the plain ``repro serve`` path.
    "plain": lambda: ScaleConfig(serve=vectorized(golden_serve_config())),
    "elastic": golden_autoscale_config,
    # Faults under ABFT, and under SEC-DED ECC, on both engines.
    "integrity": lambda: ScaleConfig(
        serve=vectorized(golden_integrity_config())),
    "ecc": lambda: ScaleConfig(serve=golden_ecc_config()),
    "elastic_all": elastic_all,
}

def inputs():
    poisson_arrival_times(400.0, 64, 0)
    bursty_arrival_times(600.0, 64, 0, burst_multiplier=4.0, period_s=0.5)
    FaultPlan.random(0, 4, 0.2, stall_rate=5.0, outage_rate=5.0,
                     permanent_fraction=0.25).merged_with(
        FaultPlan.random_bit_flips(0, 4, 0.2, flip_rate=5.0))

simulators = []

def build():
    config = CONFIGS[sys.argv[1]]()
    serve = config.serve
    steps["features"] = sorted(
        name for name, on in [("integrity", serve.integrity.enabled),
                              ("faults", bool(serve.faults)),
                              ("ecc", serve.ecc.enabled)] if on)
    simulators.append(ScaleSimulator(config))

step("inputs", inputs)
step("build", build)
step("run", lambda: simulators[0].run())
step("run_with_monitor", lambda: simulators[0].run_with_monitor())
print(json.dumps(steps))
"""
#: The script's configs.  Each runs in its own interpreter, so every
#: step sees only the modules it loads itself.
CONFIG_NAMES = ("plain", "elastic", "integrity", "ecc", "elastic_all")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _off_path(modules):
    return sorted(name for name in modules
                  if any(name == off or name.startswith(off + ".")
                         for off in OFF_PATH))


@pytest.fixture(scope="module")
def contract_steps():
    """``{config name: {step: modules it loaded}}``."""
    steps = {}
    for name in CONFIG_NAMES:
        proc = subprocess.run([sys.executable, "-c", _CONTRACT_SCRIPT, name],
                              env=_env(), capture_output=True, text=True,
                              check=True)
        steps[name] = json.loads(proc.stdout.splitlines()[-1])
    return steps


def test_off_path_modules_exist():
    # A renamed module would make the checks below pass vacuously.
    for name in OFF_PATH + tuple(sorted(GATED)):
        assert importlib.util.find_spec(name) is not None, name


def test_import_scale_loads_only_the_serving_stack(contract_steps):
    loaded = contract_steps["plain"]["import"]
    assert _off_path(loaded) == []
    assert sorted(GATED.intersection(loaded)) == []
    assert len(loaded) <= MAX_SERVING_MODULES, loaded


def test_contract_covers_every_feature(contract_steps):
    features = {feature for steps in contract_steps.values()
                for feature in steps["features"]}
    assert features == set(FEATURE_MODULES)
    assert contract_steps["plain"]["features"] == []


@pytest.mark.parametrize("config", CONFIG_NAMES)
def test_build_loads_exactly_its_features_models(contract_steps, config):
    steps = contract_steps[config]
    expected = {name for feature in steps["features"]
                for name in FEATURE_MODULES[feature]}
    assert sorted(steps["build"]) == sorted(expected)


@pytest.mark.parametrize("step", ["inputs", "run", "run_with_monitor"])
def test_serving_steps_import_nothing(contract_steps, step):
    assert {config: steps[step] for config, steps in contract_steps.items()
            if steps[step]} == {}


def test_cli_serve_loads_no_off_path_module(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro.cli", "serve",
         "--requests", "50"],
        env=_env(), cwd=tmp_path, capture_output=True, text=True, check=True)
    assert "qps sustained" in proc.stdout
    # ``-X importtime`` rows end in the (indented) module name.
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "repro.scale.simulator" in imported
    assert _off_path(imported) == []
    assert sorted(GATED.intersection(imported)) == []


def _export_table(package):
    """``{name: defining submodule}`` read from the package's source."""
    init = SRC.joinpath(*package.split("."), "__init__.py")
    table = {}
    for node in ast.walk(ast.parse(init.read_text())):
        if isinstance(node, ast.Call) \
                and getattr(node.func, "id", "") == "lazy_exports":
            for module, names in zip(node.args[1].keys, node.args[1].values):
                for name in names.elts:
                    table[name.value] = f"{package}.{module.value}"
            for keyword in node.keywords:
                for name in keyword.value.elts:
                    table[name.value] = None
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                table[alias.asname or alias.name] = \
                    f"{package}.{node.module}"
    return table


@pytest.mark.parametrize("package", PACKAGES)
def test_export_table(package):
    pkg = importlib.import_module(package)
    table = _export_table(package)
    assert len(pkg.__all__) == len(set(pkg.__all__)), "duplicate export"
    assert set(pkg.__all__) == set(table) | ({"__version__"}
                                             if package == "repro" else set())
    for name, module in table.items():
        value = getattr(pkg, name)
        if module is None:
            assert value is importlib.import_module(f"{package}.{name}")
        else:
            assert value is vars(importlib.import_module(module))[name], name
    assert set(pkg.__all__) <= set(dir(pkg))
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(pkg.__all__) <= set(namespace)
    assert not hasattr(pkg, "no_such_export")
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(pkg, "no_such_export")


def test_no_module_imports_through_a_lazy_package():
    lazy = {package: _export_table(package) for package in PACKAGES
            if "lazy_exports(" in SRC.joinpath(
                *package.split("."), "__init__.py").read_text()}
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        package = parts[:-1]
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                base = package[:len(package) - node.level + 1]
                target = ".".join(base + ((node.module,) if node.module
                                          else ()))
            else:
                target = node.module or ""
            through = [alias.name for alias in node.names
                       if lazy.get(target, {}).get(alias.name, False)]
            if through:
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno} "
                                 f"imports {through} through {target}")
    assert offenders == []
