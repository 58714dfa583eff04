"""CNT fabric transistors: parallel composition, shunts, sampling."""

import numpy as np
import pytest

from repro.devices.cntfet import CNTFET
from repro.devices.empirical import AlphaPowerFET
from repro.devices.fabric import CNTFabricFET, sample_fabric


@pytest.fixture
def tube():
    return AlphaPowerFET(k_a_per_v_alpha=2e-5)


class TestComposition:
    def test_validation(self, tube):
        with pytest.raises(ValueError):
            CNTFabricFET([], n_metallic=0)
        with pytest.raises(ValueError):
            CNTFabricFET([tube], n_metallic=-1)
        with pytest.raises(ValueError):
            CNTFabricFET([tube], pitch_nm=0.0)

    def test_parallel_currents_add(self, tube):
        one = CNTFabricFET([tube], pitch_nm=8.0)
        five = CNTFabricFET([tube] * 5, pitch_nm=8.0)
        assert five.current(0.8, 0.5) == pytest.approx(5 * one.current(0.8, 0.5))

    def test_width_is_tubes_times_pitch(self, tube):
        fabric = CNTFabricFET([tube] * 4, n_metallic=1, pitch_nm=8.0)
        assert fabric.n_tubes == 5
        assert fabric.width_nm == pytest.approx(40.0)

    def test_density_independent_of_tube_count_for_uniform_fabric(self, tube):
        small = CNTFabricFET([tube] * 2, pitch_nm=8.0)
        large = CNTFabricFET([tube] * 20, pitch_nm=8.0)
        assert small.current_density_a_per_m(0.8, 0.5) == pytest.approx(
            large.current_density_a_per_m(0.8, 0.5)
        )

    def test_tighter_pitch_higher_density(self, tube):
        loose = CNTFabricFET([tube] * 5, pitch_nm=20.0)
        tight = CNTFabricFET([tube] * 5, pitch_nm=5.0)
        assert tight.current_density_a_per_m(0.8, 0.5) > loose.current_density_a_per_m(
            0.8, 0.5
        )


class TestMetallicShunts:
    def test_shunt_conducts_when_off(self, tube):
        clean = CNTFabricFET([tube] * 5, n_metallic=0)
        dirty = CNTFabricFET([tube] * 5, n_metallic=1)
        assert dirty.current(0.0, 0.5) > 10 * clean.current(0.0, 0.5)

    def test_shunt_kills_on_off_ratio(self, tube):
        clean = CNTFabricFET([tube] * 5, n_metallic=0)
        dirty = CNTFabricFET([tube] * 5, n_metallic=1)
        assert dirty.on_off_ratio(1.0) < clean.on_off_ratio(1.0) / 10.0

    def test_shunt_current_is_ohmic(self, tube):
        fabric = CNTFabricFET([], n_metallic=2, metallic_resistance_ohm=20e3)
        assert fabric.current(0.0, 0.5) == pytest.approx(2 * 0.5 / 20e3)
        assert fabric.current(1.0, 0.5) == pytest.approx(fabric.current(0.0, 0.5))


class TestSampling:
    def test_tube_count_from_width_and_pitch(self):
        fabric = sample_fabric(
            width_um=0.08, pitch_nm=8.0, rng=np.random.default_rng(0)
        )
        assert fabric.n_tubes == 10

    def test_purity_controls_metallic_fraction(self):
        rng = np.random.default_rng(1)
        dirty = sample_fabric(
            width_um=1.0, semiconducting_purity=0.7, rng=rng
        )
        clean = sample_fabric(
            width_um=1.0,
            semiconducting_purity=0.9999,
            rng=np.random.default_rng(1),
        )
        assert dirty.n_metallic > clean.n_metallic
        assert clean.n_metallic <= 1

    def test_sampled_fabric_conducts_and_switches(self):
        fabric = sample_fabric(
            width_um=0.08, semiconducting_purity=1.0, rng=np.random.default_rng(2)
        )
        assert fabric.current(0.6, 0.5) > 1e-5  # ~10 tubes x uA
        assert fabric.on_off_ratio(0.6) > 1e3

    def test_ma_per_um_class_density(self):
        # The integration goal: an aligned fabric at logic pitch delivers
        # mA/um-class drive — competitive with the Fig. 5 field.
        fabric = sample_fabric(
            width_um=0.08, semiconducting_purity=1.0, rng=np.random.default_rng(3)
        )
        density = fabric.current_density_a_per_m(0.6, 0.5)
        assert density > 1e3  # > 1 mA/um

    def test_one_shared_device_per_chirality(self):
        fabrics = [
            sample_fabric(width_um=0.2, rng=np.random.default_rng(seed))
            for seed in (4, 5)
        ]
        by_chirality: dict[tuple[int, int], set[int]] = {}
        for fabric in fabrics:
            for device in fabric.tube_devices:
                assert isinstance(device, CNTFET)
                key = (device.chirality.n, device.chirality.m)
                by_chirality.setdefault(key, set()).add(id(device))
        assert all(len(ids) == 1 for ids in by_chirality.values())
        # Tubes repeat chiralities, so sharing actually happens.
        assert sum(len(f.tube_devices) for f in fabrics) > len(by_chirality)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_fabric(width_um=0.0)
        with pytest.raises(ValueError):
            sample_fabric(width_um=1.0, semiconducting_purity=1.5)
