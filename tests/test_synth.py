import numpy as np
import pytest

from fcdbn.evaluation import ztest_proportions
from fcdbn.synth import make_kin_benchmark, synth_kin


def pixel_distance(a, b):
    return float(np.sqrt(np.mean((a - b) ** 2)))


def distances_by_label(images, pairs):
    kin, nonkin = [], []
    for p in pairs:
        d = pixel_distance(images[p.subject_a], images[p.subject_b])
        (kin if p.label == "kin" else nonkin).append(d)
    return kin, nonkin


class TestSynthKin:
    def test_full_separability_makes_family_members_identical(self):
        images, pairs = synth_kin(seed=0, families=6, members_per_family=4,
                                  separability=1.0)
        kin, nonkin = distances_by_label(images, pairs)
        assert max(kin) == 0.0
        assert min(nonkin) > 0.0

    def test_high_separability_orders_distances(self):
        images, pairs = synth_kin(seed=1, families=8, members_per_family=4,
                                  separability=0.9)
        kin, nonkin = distances_by_label(images, pairs)
        assert max(kin) < min(nonkin)

    def test_zero_separability_is_indistinguishable(self):
        # kin vs nonkin distance distributions: proportion below the pooled
        # median should not differ significantly over 200 pairs
        images, pairs = synth_kin(seed=2, families=50, members_per_family=4,
                                  separability=0.0)
        kin, nonkin = distances_by_label(images, pairs)
        kin, nonkin = kin[:100], nonkin[:100]
        pooled_median = float(np.median(kin + nonkin))
        p_kin = np.mean([d < pooled_median for d in kin])
        p_non = np.mean([d < pooled_median for d in nonkin])
        z, significant = ztest_proportions(p_kin, len(kin), p_non, len(nonkin))
        assert not significant

    def test_byte_determinism(self):
        i1, p1 = synth_kin(seed=3, families=4, members_per_family=4,
                           separability=0.8)
        i2, p2 = synth_kin(seed=3, families=4, members_per_family=4,
                           separability=0.8)
        assert p1 == p2
        for key in i1:
            assert np.array_equal(i1[key], i2[key])

    def test_images_fit_pgm_range(self):
        images, _ = synth_kin(seed=4, families=3, members_per_family=3,
                              separability=0.5)
        for img in images.values():
            assert img.shape == (64, 64)
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_kin_rows_use_each_image_once(self):
        _, pairs = synth_kin(seed=5, families=7, members_per_family=5,
                             separability=0.7)
        kin_rows = [p for p in pairs if p.label == "kin"]
        used = [p.path_a for p in kin_rows] + [p.path_b for p in kin_rows]
        assert len(used) == len(set(used))

    def test_nonkin_rows_cross_families(self):
        _, pairs = synth_kin(seed=6, families=6, members_per_family=4,
                             separability=0.7)
        for p in pairs:
            fam_a = p.subject_a.split("_")[0]
            fam_b = p.subject_b.split("_")[0]
            if p.label == "kin":
                assert fam_a == fam_b
            else:
                assert fam_a != fam_b

    def test_equal_kin_and_nonkin_counts(self):
        _, pairs = synth_kin(seed=7, families=9, members_per_family=4,
                             separability=0.6)
        kin = sum(1 for p in pairs if p.label == "kin")
        nonkin = sum(1 for p in pairs if p.label == "nonkin")
        assert kin == nonkin > 0


class TestBenchmark:
    def test_blocks_are_family_disjoint_and_sized(self):
        corpus, train_pairs, test_pairs = make_kin_benchmark(
            seed=0, n_families=10, members_per_family=4, separability=0.8,
            n_test_pairs=40)
        assert len(corpus) > 0
        assert len(test_pairs) == 40
        labels = {label for _, _, label in train_pairs}
        assert labels == {0, 1}
        test_labels = [label for _, _, label in test_pairs]
        assert 0 < sum(test_labels) < len(test_labels)

    def test_deterministic(self):
        a = make_kin_benchmark(seed=1, n_families=6, members_per_family=4,
                               separability=0.8, n_test_pairs=20)
        b = make_kin_benchmark(seed=1, n_families=6, members_per_family=4,
                               separability=0.8, n_test_pairs=20)
        for (ia, ib, la), (ja, jb, lb) in zip(a[1], b[1]):
            assert la == lb
            assert np.array_equal(ia, ja)
            assert np.array_equal(ib, jb)

    @pytest.mark.parametrize("n_families, members", [(1, 4), (2, 4), (3, 4),
                                                       (4, 1)])
    def test_blocks_without_both_labels_rejected(self, n_families, members):
        # 1, 2 or 3 families leave a block with one family or none: no
        # nonkin pairs; one member per family gives no kin pairs
        with pytest.raises(ValueError, match="must be >= 2"):
            make_kin_benchmark(seed=0, n_families=n_families,
                               members_per_family=members, separability=0.8,
                               n_test_pairs=20)

    def test_four_families_give_both_labels_in_both_blocks(self):
        _, train_pairs, test_pairs = make_kin_benchmark(
            seed=0, n_families=4, members_per_family=4, separability=0.8,
            n_test_pairs=20)
        assert len(test_pairs) == 20
        for pairs in (train_pairs, test_pairs):
            assert {label for _, _, label in pairs} == {0, 1}
