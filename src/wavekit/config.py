"""Run-configuration parsing: one JSON document drives one CLI run.

Each document carries a "command" discriminator plus parameter trees
mirroring the domain types (waveform spec, region, optimization
problem, echo scene).  Parsing is strict — unknown keys are rejected —
and every tree is validated against the same invariants as the
underlying types.  The CLI reads the whole config and computes every
artifact before it writes one, so a run that exits with a ConfigError
writes nothing.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .costas import CostasCode, generate_welch_costas
from .errors import ConfigError, InvalidInputError, check_number
from .fileio import read_json
from .metrics import RegionSpec, default_region
from .signal import DB_LIMIT, _sample_count
from .waveforms import _KINDS, MtsfmParameters, WaveformSpec, swept_bandwidth

_MISSING = object()
_ROOT = "config"  # the context of a run config's top level


@contextmanager
def _as_config_error(context: str):
    """Re-raise a domain type's InvalidInputError as a ConfigError naming context."""
    try:
        yield
    except InvalidInputError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


class _Tree:
    """Strict view over one config subtree: every key must be consumed.

    context names the subtree in every message: its path from the document,
    as in 'problem' or 'scene.echoes[0]', or at the top level the document
    itself ('config', or 'coefficients file PATH').
    """

    def __init__(self, data, context: str):
        if not isinstance(data, dict):
            raise ConfigError(f"'{context}' must be a JSON object")
        self._data = dict(data)
        self.context = context

    def take(self, key: str, default=_MISSING, check=None):
        """Pop key's value, or default if absent (no default: key required).
        check(value) converts a value that is present and is not the default
        object itself, so an explicit null under a None default is the default."""
        if key not in self._data:
            if default is _MISSING:
                raise ConfigError(f"{self.context}: missing required key '{key}'")
            return default
        value = self._data.pop(key)
        return value if check is None or value is default else check(value)

    def take_number(self, key: str, default=_MISSING, **rule):
        return self.take(key, default, lambda value: self.check_number(key, value, **rule))

    def check_number(self, key: str, value, **rule):
        """value, read under key, by `errors.check_number`; a failure is a ConfigError."""
        with _as_config_error(self.context):
            return check_number(f"'{key}'", value, **rule)

    def take_subtree(self, key: str, optional: bool = False):
        """The subtree under key; an optional one, absent or null, reads as empty."""
        value = self.take(key, None if optional else _MISSING)
        return _Tree({} if optional and value is None else value,
                     key if self.context == _ROOT else f"{self.context}.{key}")

    def finish(self):
        if self._data:
            unknown = ", ".join(sorted(self._data))
            raise ConfigError(f"{self.context}: unknown keys: {unknown}")


def _float_list(tree: _Tree, key: str, default=_MISSING):
    def check(value):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{tree.context}: '{key}' must be a nonempty list")
        if any(type(v) not in (int, float) for v in value):
            raise ConfigError(f"{tree.context}: '{key}' must contain numbers")
        return [tree.check_number(key, v) for v in value]
    return tree.take(key, default, check)


def _take_coefficients(tree: _Tree, duration_s: float, num_harmonics=None) -> MtsfmParameters:
    """MTSFM design from a tree's 'alpha' and 'beta' lists; errors name the tree.

    Both lists must hold num_harmonics values (by default, alpha's length).
    """
    alpha = _float_list(tree, "alpha")
    beta = _float_list(tree, "beta")
    if num_harmonics is not None and len(alpha) != num_harmonics:
        raise ConfigError(f"{tree.context}: alpha must have length num_harmonics")
    with _as_config_error(tree.context):
        return MtsfmParameters(alpha=alpha, beta=beta, duration_s=duration_s)


def load_mtsfm_coefficients(path: str) -> MtsfmParameters:
    """Read an MTSFM coefficients JSON (as written by the optimize command)."""
    doc = _Tree(read_json(path), f"coefficients file {path}")
    duration = doc.take_number("duration_s", positive=True)
    k = doc.take_number("num_harmonics", default=None, integer=True, minimum=1)
    params = _take_coefficients(doc, duration, k)
    doc.finish()
    return params


def _parse_mtsfm(tree: _Tree, duration_s) -> MtsfmParameters:
    coeff_file = tree.take("coefficients_file", default=None)
    if coeff_file is not None:
        if not isinstance(coeff_file, str):
            raise ConfigError(f"{tree.context}: 'coefficients_file' must be a string")
        return load_mtsfm_coefficients(coeff_file)
    if duration_s is None:
        raise ConfigError(f"{tree.context}: 'duration_s' required without 'coefficients_file'")
    return _take_coefficients(tree, duration_s)


def _parse_costas_code(tree: _Tree) -> CostasCode:
    """A code of N chips needs fs*T >= 4N^2 samples: checked before it is built or verified."""
    explicit = tree.take("code", default=None)
    if explicit is None:
        key, chips = "'prime'", tree.take_number("prime", integer=True, minimum=2) - 1
    elif isinstance(explicit, list) and all(type(v) is int for v in explicit):
        key, chips = "'code'", len(explicit)
    else:
        raise ConfigError(f"{tree.context}: 'code' must be a list of integers")
    with _as_config_error(tree.context):
        _sample_count(f"{key} ({chips} chips, 4N^2 samples)", 4 * chips**2)
    if explicit is not None:
        return CostasCode(sequence=tuple(explicit))
    return generate_welch_costas(chips + 1, tree.take_number("generator", integer=True, minimum=1))


def parse_waveform(data, context: str = "waveform") -> WaveformSpec:
    """Build a validated WaveformSpec from a config subtree.

    Design bandwidth is explicit for LFM/HFM/comb and derived for the
    rest: 2/T for CW (Rayleigh width), N^2/T for Costas FSK, N/T for
    P4, and the swept bandwidth 2*max|f(t)| for MTSFM.
    """
    tree = _Tree(data, context)
    kind = tree.take("kind")
    if not isinstance(kind, str):
        raise ConfigError(f"{tree.context}: 'kind' must be a string")
    kind = kind.lower()
    center = tree.take_number("center_freq_hz", default=0.0)
    with _as_config_error(tree.context):
        if kind not in _KINDS:
            raise ConfigError(f"{tree.context}: unknown waveform kind '{kind}'")
        duration = tree.take_number("duration_s", None if kind == "mtsfm" else _MISSING,
                                    positive=True)  # MTSFM may read it from its coefficients
        fields = {}
        if kind in ("lfm", "hfm", "geometric_comb"):
            fields["bandwidth_hz"] = tree.take_number("bandwidth_hz", positive=True)
        if kind == "cw":
            fields["bandwidth_hz"] = 2.0 / duration
        elif kind == "costas_fsk":
            fields["costas"] = code = _parse_costas_code(tree)
            fields["bandwidth_hz"] = len(code) ** 2 / duration
        elif kind == "p4":  # the spec's chip check, before the division
            fields["num_chips"] = chips = tree.take_number("num_chips", integer=True, minimum=2)
            fields["bandwidth_hz"] = _sample_count("'num_chips'", chips) / duration
        elif kind == "geometric_comb":
            fields["num_tones"] = tree.take_number("num_tones", integer=True, minimum=2)
            fields["tone_ratio"] = tree.take_number("tone_ratio")
        elif kind == "mtsfm":
            fields["mtsfm"] = params = _parse_mtsfm(tree, duration)
            fields["bandwidth_hz"] = swept_bandwidth(params)
            duration = params.duration_s if duration is None else duration
        spec = WaveformSpec(kind=kind, duration_s=duration, center_freq_hz=center, **fields)
    tree.finish()
    return spec


def resolve_sample_rate(bandwidth_hz: float, duration_s: float, explicit,
                        context: str) -> float:
    """Explicit rate if given, else 8x the design bandwidth (with a floor
    guaranteeing at least 256 samples) — comfortably above the 4x
    synthesis minimum.  A rate whose N = fs*T `signal._sample_count` refuses
    is a ConfigError naming context, the subtree that holds 'sample_rate_hz'."""
    fs = float(explicit) if explicit is not None else max(8.0 * bandwidth_hz, 256.0 / duration_s)
    with _as_config_error(context):
        _sample_count(f"'duration_s' at {fs:.6g} Hz ('sample_rate_hz')", duration_s * fs)
    return fs


def parse_region(data, bandwidth_hz: float, duration_s: float) -> RegionSpec:
    """Region subtree, or the default sidelobe region for (B, T) if None."""
    if data is None:
        return default_region(bandwidth_hz, duration_s)
    tree = _Tree(data, "region")
    inner = tree.take_number("inner_delay_s", minimum=0.0)
    outer = tree.take_number("outer_delay_s", positive=True)
    tree.finish()
    with _as_config_error(tree.context):
        return RegionSpec(inner_delay_s=inner, outer_delay_s=outer)


def parse_scene(data) -> EchoScene:
    """Echo-scene subtree: explicit echo list or the six-echo benchmark."""
    from .scene import Echo, EchoScene, benchmark_scene

    tree = _Tree(data, "scene")
    bench_bw = tree.take_number("benchmark_bandwidth_hz", default=None, positive=True)
    if bench_bw is not None:
        first = tree.take_number("first_delay_s", default=None, minimum=0.0)
        tree.finish()
        return benchmark_scene(bench_bw, first_delay_s=first)
    echo_list = tree.take("echoes")
    noise = tree.take_number("noise_level_db", default=None, maximum=DB_LIMIT)
    tree.finish()
    if not isinstance(echo_list, list) or not echo_list:
        raise ConfigError(f"{tree.context}: 'echoes' must be a nonempty list")
    echoes = []
    for i, entry in enumerate(echo_list):
        etree = _Tree(entry, f"{tree.context}.echoes[{i}]")
        with _as_config_error(etree.context):
            echoes.append(Echo(
                delay_s=etree.take_number("delay_s", minimum=0.0),
                doppler_hz=etree.take_number("doppler_hz", default=0.0),
                level_db=etree.take_number("level_db"),
                time_scale=etree.take_number("time_scale", default=1.0, positive=True),
            ))
        etree.finish()
    with _as_config_error(tree.context):
        return EchoScene(echoes=tuple(echoes), noise_level_db=noise)


def parse_dopplers(tree: _Tree) -> np.ndarray:
    """Doppler grid: explicit list, or a symmetric span with a count.

    A span grid is `count` evenly spaced rows from -span/2 to span/2; a
    count of 1 is the single row at the centre of the span, 0 Hz.  A count
    that `signal._sample_count` refuses is refused before the grid is built;
    the map's rows x lags are `mf_bank`'s to check.
    """
    explicit = _float_list(tree, "dopplers_hz", default=None)
    if explicit is not None:
        return np.array(explicit)
    span = tree.take_number("doppler_span_hz", positive=True)
    count = tree.take_number("num_dopplers", integer=True, minimum=1)
    with _as_config_error(tree.context):
        _sample_count("'num_dopplers'", count)
    if count == 1:
        return np.zeros(1)
    return np.linspace(-span / 2.0, span / 2.0, count)


def load_config(path: str, command: str) -> _Tree:
    """Load a run config and check its command discriminator."""
    doc = read_json(path)
    tree = _Tree(doc, _ROOT)
    declared = tree.take("command", default=command)
    if declared != command:
        raise ConfigError(
            f"config: document says command '{declared}' but '{command}' was invoked")
    return tree
