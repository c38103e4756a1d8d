import numpy as np
import numpy.testing as npt
import pytest

import msfnet
import oracles
from msfnet.errors import BadParameter, NoStableInterval
from msfnet.msf import _rounding_floor


# ---------------------------------------------------------------------------
# point evaluation against the quadratic-formula oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam,mu,expected", [
    (0.0, 0.0, -1.0),   # roots of s^2 + 2s + 5 are -1 +- 2i
    (2.0, 0.0, 0.0),    # nu = 2 puts the pair on the imaginary axis
    (7.0, 5.0, 0.0),    # same nu through a different (lam, mu)
])
def test_sigma_reference_points(paper_model, lam, mu, expected):
    assert msfnet.sigma(paper_model, lam, mu) == pytest.approx(expected, abs=1e-8)


def test_sigma_matches_closed_form_on_random_points(paper_model):
    rng = np.random.default_rng(101)
    for lam, mu in rng.uniform(-10.0, 10.0, (200, 2)):
        expected = oracles.sigma_closed(lam - mu)
        assert abs(msfnet.sigma(paper_model, lam, mu) - expected) <= 1e-8


def test_sigma_at_origin_is_max_real_eig_of_F(paper_model):
    expected = float(np.max(np.linalg.eigvals(paper_model.F).real))
    assert msfnet.sigma(paper_model, 0.0, 0.0) == expected


def test_sigma_conjugate_symmetry(paper_model):
    # real matrices: conjugating lambda conjugates the block spectrum
    a = msfnet.sigma(paper_model, 1.0 + 2.0j, 0.5)
    b = msfnet.sigma(paper_model, 1.0 - 2.0j, 0.5)
    assert a == pytest.approx(b, abs=1e-12)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_corners_match_point_evaluations(paper_model):
    lams, mus, values = msfnet.sigma_grid(paper_model, (-3.0, 3.0), (-2.0, 2.0), 2)
    assert values.shape == (2, 2)
    # values[i, j] pairs lams[i] with mus[j]
    assert lams.tolist() == [-3.0, 3.0] and mus.tolist() == [-2.0, 2.0]
    for i, lam in enumerate(lams):
        for j, mu in enumerate(mus):
            assert values[i, j] == msfnet.sigma(paper_model, lam, mu)

    # array arguments broadcast and agree bit for bit with scalar calls,
    # for complex lambda and for an n = 1 plant
    one_state_plant = msfnet.build_plant_model([[-1.0]], [[1.0]], [[0.5]], [[0.2]], [[-0.7]])
    lam = np.array([[1.0 + 2.0j], [-0.5 - 1.0j], [3.0 + 0.0j]])
    mu = np.array([-2.0, 0.0, 0.25, 4.0])
    for model in (paper_model, one_state_plant):
        assert type(msfnet.sigma(model, lam[0, 0], mu[0])) is float
        batch = msfnet.sigma(model, lam, mu)
        assert batch.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                assert batch[i, j] == msfnet.sigma(model, lam[i, 0], mu[j])


def test_grid_constant_when_uncoupled():
    m = msfnet.build_plant_model(oracles.D, oracles.R, np.zeros((2, 2)),
                                 oracles.K, np.zeros((1, 2)))
    _, _, values = msfnet.sigma_grid(m, (-5.0, 5.0), (-5.0, 5.0), 5)
    assert set(values.ravel().tolist()) == {msfnet.sigma(m, 0.0, 0.0)}


def test_grid_zero_level_tracks_routh_line(paper_model):
    # stability boundary is mu = lam - 2; each row's sign change must
    # bracket it within one grid cell
    steps = 41
    _, _, rows = msfnet.sigma_grid(paper_model, (-10.0, 10.0), (-10.0, 10.0), steps)
    mus = np.linspace(-10.0, 10.0, steps)
    cell = mus[1] - mus[0]
    lams = np.linspace(-10.0, 10.0, steps)
    checked = 0
    for lam, row in zip(lams, rows):
        nonneg = row >= 0.0
        if not nonneg.any():
            assert lam - 2.0 <= mus[0]
            continue
        crossings = np.flatnonzero(nonneg[:-1] & ~nonneg[1:])
        assert len(crossings) == 1
        k = crossings[0]
        assert mus[k] - cell <= lam - 2.0 <= mus[k + 1] + cell
        checked += 1
    assert checked > 0


def test_rounding_floor_of_zero_and_huge_blocks():
    eps = np.finfo(float).eps
    blocks = np.stack([np.zeros((2, 2)), np.full((2, 2), 1e200)])
    npt.assert_allclose(_rounding_floor(blocks), [2 * eps, 2 * eps * 2e200], rtol=1e-15)


def test_grid_rejects_bad_steps(paper_model):
    with pytest.raises(BadParameter):
        msfnet.sigma_grid(paper_model, (-1.0, 1.0), (-1.0, 1.0), 1)
    with pytest.raises(BadParameter):
        msfnet.sigma_grid(paper_model, (1.0, -1.0), (-1.0, 1.0), 5)
    # 10^12 blocks of 2x2 (29 TiB) fail to allocate at once
    with pytest.raises(BadParameter, match="fewer steps"):
        msfnet.sigma_grid(paper_model, (-1.0, 1.0), (-1.0, 1.0), 10 ** 6)


# ---------------------------------------------------------------------------
# stable intervals
# ---------------------------------------------------------------------------

def test_interval_for_dominant_mode(paper_model):
    iv = msfnet.stable_interval(paper_model, 7.0)
    assert iv.lower == pytest.approx(5.0, abs=1e-6)
    assert iv.upper == np.inf
    assert not iv.lower < 0.0 < iv.upper


def test_interval_containing_zero(paper_model):
    iv = msfnet.stable_interval(paper_model, -1.0)
    assert iv.lower == pytest.approx(-3.0, abs=1e-6)
    assert iv.upper == np.inf
    assert iv.lower < 0.0 < iv.upper


def test_interval_whole_range_when_uncoupled():
    m = msfnet.build_plant_model(oracles.D, oracles.R, np.zeros((2, 2)),
                                 oracles.K, np.zeros((1, 2)))
    iv = msfnet.stable_interval(m, 3.0)
    assert (iv.lower, iv.upper) == (-np.inf, np.inf)


def test_no_stable_interval_in_range(unstabilizable_model):
    # the uncontrolled first state grows for lam > 1/0.22, whatever mu is
    with pytest.raises(NoStableInterval):
        msfnet.stable_interval(unstabilizable_model, 60.0)


def test_interval_rejects_non_finite_lambda(paper_model):
    for lam in (np.nan, np.inf, -np.inf, complex(1.0, np.nan)):
        with pytest.raises(BadParameter):
            msfnet.stable_interval(paper_model, lam)


def test_interval_raises_where_a_pencil_overflows():
    # with H = I the bialternate of F + lam*H holds 2*lam, beyond the largest
    # float at |lam| = 1e308; a complex lam whose |Re| + |Im| overflows has
    # no representable scale at all
    model = msfnet.build_plant_model(-np.eye(2), np.eye(2), np.eye(2), np.eye(2), np.eye(2))
    for lam in (1e308, -1e308):
        with pytest.raises(BadParameter, match="overflows the pencil"):
            msfnet.stable_interval(model, lam)
    with pytest.raises(BadParameter, match="exceeds the largest float"):
        msfnet.stable_interval(model, complex(1e308, 1e308))


@pytest.mark.parametrize("lam", [7.0, 3.0, 2.0, -1.0, 60.0])
def test_interval_soundness(paper_model, lam):
    iv = msfnet.stable_interval(paper_model, lam)
    mid = min(iv.lower + 1.0, 0.5 * (iv.lower + iv.upper))  # upper may be inf
    assert msfnet.sigma(paper_model, lam, mid) < 0.0
    for point in (iv.lower, iv.upper):
        if np.isfinite(point):
            assert abs(msfnet.sigma(paper_model, lam, point)) <= 1e-6


def test_interval_is_deterministic(paper_model):
    a = msfnet.stable_interval(paper_model, 7.0)
    b = msfnet.stable_interval(paper_model, 7.0)
    assert (a.lower, a.upper) == (b.lower, b.upper)


def test_sigma_continuity_probe():
    # eigenvalues move continuously with the entries; a 1e-6 nudge in mu
    # must not move sigma by more than 1e-2
    rng = np.random.default_rng(55)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        model = msfnet.build_plant_model(*oracles.random_plant(rng, n))
        lam = rng.uniform(-3.0, 3.0)
        mu = rng.uniform(-3.0, 3.0)
        delta = 1e-6
        jump = abs(msfnet.sigma(model, lam, mu + delta) - msfnet.sigma(model, lam, mu))
        assert jump <= 1e-2


# Plants drawn by oracles.random_plant on which a 400-point scan plus
# bisection returned a farther interval (seed 0 draw 31), no interval
# (seed 0 draw 218) or a numerical failure (seed 7 draw 120).
REGRESSION_PLANTS = [
    pytest.param(
        -0.2591035485920026, (-2.05472, -1.98693),
        dict(
            D=[[-0.07637201555711126, -1.2141181097202267, -0.9201501195642736, -1.8303039123250824],
               [0.3263232484459353, -0.3030790925295186, 0.63417098913648, 0.1258501324684369],
               [-0.3328634472457028, -0.5918961001714012, -1.8375110139163806, 1.9318682823153952],
               [-1.6992108460545392, -1.898135640691169, -1.1387883279757758, -1.455255013330226]],
            R=[[1.1777313484889063, -1.393481342157382, -0.6401997321143016, -1.9470064760659445],
               [1.7262763508255246, -0.7158384217419749, 1.3715136508157948, 1.847739365384367],
               [0.9098080832719235, -0.9570325829851645, -0.031418101053766634, 1.130607756061905],
               [0.7945846282036388, 1.3102867929232094, 0.1782969708872022, 0.6300104205990147]],
            H=[[-0.547215103789831, -1.2343748510116073, 0.7889610630956803, -1.9884706357847906],
               [1.13552376519758, -1.971067118407722, 0.46720368252645184, 0.3784554026426932],
               [-1.5779503168049573, 0.36880916719995804, 1.0313882530933913, 0.1439678328667604],
               [0.6910422024629534, 0.8346868508220013, -1.176360470458111, 1.706466025653242]],
            K=[[-0.6898342038351104, 0.3348078243721182, -1.5872684467408509, 1.985620068156519],
               [0.6165644341695256, -0.15285746612726347, 0.26447898516458546, -1.8912467108292979],
               [-1.0396814157456538, 1.8987562263351672, -1.675873919883518, -1.4331964238172246],
               [0.2923090446708798, 1.095888501364481, 1.4114926411368858, 1.4449131313688732]],
            L=[[1.0408886256194934, -0.6093690570131156, 0.326324615619896, 1.2524924737626097],
               [-1.4446166339421165, -1.6743177073813356, -0.16565921661994043, -0.7586386542857757],
               [-1.985061079894471, 0.06745407075697596, -0.5080888943116548, 1.5325381773679467],
               [-0.6632958972043781, 0.6506842543258369, 0.2723135217132966, -0.8013335594473618]],
        ),
        id="seed-0-draw-31"),
    pytest.param(
        2.044251943750327, (-1.04780, -0.89933),
        dict(
            D=[[1.1837876177317015, -1.2992419197810468, 1.4913398007974186],
               [-0.5312761838956419, -1.7293060484378393, 1.9270344917427646],
               [-0.2065764137760926, -1.461074798757958, 1.5324138283773014]],
            R=[[1.1211153704033117],
               [0.13056336582332984],
               [0.8676796125954098]],
            H=[[-1.4514646117790648, 0.2859175983193234, -1.6441441045013465],
               [-0.6914816476172101, -0.5570310754031218, -0.036244550587056334],
               [-0.7154629568525555, -0.27139239529603953, -0.5850607210448611]],
            K=[[-1.8847896735100327, 1.497607928580202, -0.41130189332950806]],
            L=[[-1.8157459394776807, 1.9913941000134456, -1.5154352589324849]],
        ),
        id="seed-0-draw-218"),
    pytest.param(
        -0.16073146259232463, (-1.92575, -0.03698),
        dict(
            D=[[-1.9710287336570986, -1.770053876972483, -1.6034331277393816, 1.650959418313409],
               [-0.3519110404237238, 1.3855422950640888, 0.7785137412135743, -1.6487517784845016],
               [-0.5531995895384698, -0.674147186081909, -0.1877284466522302, 1.0152579975411862],
               [-1.665535243579738, 1.7054347143802264, -0.09360921690573365, -0.5368570085057955]],
            R=[[0.7907952941966059, -0.8939988502642047, 0.8498854160290534, -0.33625301657885576],
               [-0.08737379596533401, -1.243568598852315, -1.1872614329504545, 1.445576544189561],
               [0.30529092973836125, -0.31088544525857564, 1.0998664827966245, 1.6484204551358563],
               [-1.3645671307692164, 1.9919990474050637, -1.943430314140349, 0.4558579883192242]],
            H=[[-0.945420667176907, -0.99146674554689, -0.02138400077635616, 0.41689617314157434],
               [-0.2525778936731191, 0.8559090089589554, 1.8011585527248477, -1.3245091936374047],
               [-1.0496581974173695, 0.4382564662867363, -0.35896189957830726, -0.7384539162579444],
               [0.01799068316229091, 0.7873428496821684, 1.634675740160099, 1.763477200651387]],
            K=[[1.278135828922991, -0.6135623603157745, 1.5354828846839754, 0.8397669171554494],
               [-1.302026618837128, 1.812953332203311, -1.010629816124931, 0.7285684941600126],
               [0.7781162462152551, 1.6322534238799329, 0.6658421394138068, 1.932540916985627],
               [-1.7610798521726085, -1.8501623628828074, -1.2175232375376779, 0.30105527895998563]],
            L=[[-0.30434644727085214, -1.6699532048021855, -1.1919633520973885, 0.31699076589337816],
               [-0.39010276389875465, 1.0537505331455934, -0.13214166761740076, 1.51094802257794],
               [1.0350215886365404, -0.02223402571010613, -0.5680538290219914, -1.1446341454388467],
               [-0.8316930362142365, -0.5796890415364571, -0.5550547887538109, -1.2839385977499274]],
        ),
        id="seed-7-draw-120"),
]


@pytest.mark.parametrize("lam,expected,plant", REGRESSION_PLANTS)
def test_interval_regressions(lam, expected, plant):
    model = msfnet.build_plant_model(**plant)
    iv = msfnet.stable_interval(model, lam)
    assert (iv.lower, iv.upper) == pytest.approx(expected, abs=1e-5)
    _assert_matches_brute(model, lam, (-50.0, 50.0))


# seed 0 draw 23 of oracles.random_plant: an infinite eigenvalue of the
# bialternate pencil surfaces as a finite root near -1.04e16, and sigma at
# that segment's midpoint (-5.2e15) drowns in the rounding floor
SPURIOUS_ROOT_PLANT = dict(
    D=[[-1.3405451298940534, -0.47996841346697394], [-1.9479693065004589, 1.3110516793245814]],
    R=[[-0.015026758634928417], [-0.256327737750885]],
    H=[[0.40717886254580504, 1.4001128170196018], [-0.8349571007024492, -0.929932110378882]],
    K=[[-1.802023169151353, -0.9344036250668366]],
    L=[[-1.7351526071809484, -1.8337660513044507]],
)


def test_interval_past_spurious_pencil_root():
    model = msfnet.build_plant_model(**SPURIOUS_ROOT_PLANT)
    lam = 0.42184449768293675
    iv = msfnet.stable_interval(model, lam)
    assert iv.upper == pytest.approx(-2.13819, abs=1e-5)
    assert iv.lower < -50.0
    _assert_matches_brute(model, lam, (-50.0, 50.0))


@pytest.mark.parametrize("lam", [-1e9, 2e9])
def test_interval_at_huge_lambda(paper_model, lam):
    # near mu = 0, sigma ~ 5/(lam - mu) is below the rounding floor; a unit
    # inside the finite end lam - 2 it is clearly negative
    iv = msfnet.stable_interval(paper_model, lam)
    assert (iv.lower, iv.upper) == (lam - 2.0, np.inf)


@pytest.mark.parametrize("exponent", range(10))
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_interval_at_scaled_lambda_matches_brute_force(paper_model, sign, exponent):
    lam = sign * 10.0 ** exponent
    _assert_matches_brute(paper_model, lam, (lam - 4.0, lam + 4.0))


# seed 11 draw 1869 of the interval procedure in CHANGES.md: a spurious
# pencil root at -2.76e14.  Just inside it sigma is rounding noise that can
# clear the floor, while sigma is about +1.2 from -324 to -1e13, so a rule
# accepting any point that clears the floor finds a false interval.
SPURIOUS_ROOT_NOISE_PLANT = dict(
    D=[[1.7420636692653644, 0.6595203598098833, -0.5968475595406528, 1.9484845555074917],
       [0.24537909313266937, 0.26032667622702954, -0.37649427671850777, -0.2836512799414814],
       [-1.101358573758083, 0.9706753091154705, -1.0052069932773553, -0.09618955156776554],
       [1.5309018065724378, -0.48245662954975144, 1.75375873945439, -1.1111435529876519]],
    R=[[1.7065161615354745], [1.0713146349062361], [-0.3148824524109952], [0.9371852655725363]],
    H=[[0.5192383471614206, -1.4250234873731489, 0.1708780241856891, -1.6193892748158043],
       [-0.0925183214412102, -1.3674951096853594, 0.6108591462363115, -0.0009345542946310736],
       [-0.12222890676023557, 1.6746457001882797, 1.447497620270315, -1.8248781755683483],
       [0.1282797016144932, -1.3948626410032898, -1.4706112545727619, -0.7173675739099328]],
    K=[[1.7031251490787591, -1.672141164535975, -1.0110805133667577, -1.1075865081283118]],
    L=[[-0.756583675488963, -0.001314289585040651, 1.0357006213187474, 1.9339999957919822]],
)


def test_interval_ignores_noise_beside_spurious_root():
    model = msfnet.build_plant_model(**SPURIOUS_ROOT_NOISE_PLANT)
    with pytest.raises(NoStableInterval):
        msfnet.stable_interval(model, -4.025974771019987 + 1.368890833222176j)


def _assert_matches_brute(model, lam, span):
    # the interval's part inside span matches the brute run nearest the
    # origin: each true boundary lies within one grid step outside it
    brute = oracles.brute_interval(model.F, model.H, model.G, lam, span)
    step = (span[1] - span[0]) / 20000
    try:
        iv = msfnet.stable_interval(model, lam)
    except NoStableInterval:
        assert brute is None
        return
    lower, upper = max(iv.lower, span[0]), min(iv.upper, span[1])
    if brute is None:
        assert lower > upper  # the nearest interval lies beyond span
        return
    slack = 1e-9
    assert brute[0] - step - slack <= lower <= brute[0] + slack
    assert brute[1] - slack <= upper <= brute[1] + step + slack


def test_interval_matches_brute_force_oracle():
    rng = np.random.default_rng(2026)
    for trial in range(24):
        n = 1 + trial % 4
        model = msfnet.build_plant_model(*oracles.random_plant(rng, n))
        lam = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0) if trial % 2 else 0.0)
        _assert_matches_brute(model, lam, (-10.0, 10.0))


@pytest.mark.parametrize("lam", [-1.0, 3.0, 1.5 - 2.0j, 2.5 + 1.0j])
def test_interval_uncoupled_matches_brute_force(lam):
    # G = 0: no pencil has a finite root and sigma is constant in mu, so
    # the interval is the whole range (first and third lam) or none
    model = msfnet.build_plant_model(oracles.D, oracles.R, oracles.H,
                                     oracles.K, np.zeros((1, 2)))
    _assert_matches_brute(model, lam, (-10.0, 10.0))
