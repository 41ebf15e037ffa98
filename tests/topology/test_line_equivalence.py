"""A line Topology is the tandem: bitwise bounds, pinned simulations.

The Fig. 1 tandem is the degenerate one-route case of the topology
engine, not an approximation of it:

* the analytic bound of a line topology's route equals the tandem
  analysis **bitwise** (both numeric backends);
* :func:`simulate_tandem_mmoo` runs its config's line topology, and its
  through- and per-node cross-delay records hash to sha256 digests
  recorded from the separate tandem simulator that line topologies
  replaced.  The digests cover the chunk engine (every scheduler,
  preemptive and not, with and without packetization, with and without
  cross traffic, one and three hops), the vectorized engine (FIFO, BMUX,
  SP, EDF) and one chunk-engine rare-event trial.  Each is asserted with
  the compiled kernels and with their Python/numpy fallbacks forced.
"""

import hashlib
import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals import csampler
from repro.arrivals.mmoo import MMOOParameters
from repro.network.e2e import e2e_delay_bound_mmoo
from repro.simulation import ckernels
from repro.simulation.engine import SimulationConfig, simulate_tandem_mmoo
from repro.simulation.rare import simulate_tandem_mmoo_rare
from repro.topology import Topology

TRAFFIC = MMOOParameters.paper_defaults()
CAPACITY = 100.0
EPSILON = 1e-4

#: (scheduler, analysis Delta) pairs with an end-to-end bound.
ANALYSIS_SCHEDULERS = st.sampled_from(["fifo", "bmux", "edf"])

HOPS = st.sampled_from([1, 2, 10])


def _delta(scheduler: str) -> float:
    return {"fifo": 0.0, "bmux": float("inf"), "edf": 1.0 - 10.0}[scheduler]


class TestBoundEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(scheduler=ANALYSIS_SCHEDULERS, hops=HOPS,
           backend=st.sampled_from(["numpy", "scalar"]))
    def test_line_bound_bitwise_equals_tandem(self, scheduler, hops, backend):
        from repro.topology.routes import route_delay_bound_mmoo

        topo = Topology.line(
            hops, capacity=CAPACITY, n_through=150, n_cross=150,
            scheduler=scheduler,
        )
        via_topology = route_delay_bound_mmoo(
            topo, "through", TRAFFIC, EPSILON,
            s_grid=6, gamma_grid=6, backend=backend,
        )
        direct = e2e_delay_bound_mmoo(
            TRAFFIC, 150, 150, hops, CAPACITY, _delta(scheduler), EPSILON,
            s_grid=6, gamma_grid=6, backend=backend,
        )
        assert via_topology.delay == direct.delay
        assert via_topology.sigma == direct.sigma
        assert via_topology.gamma == direct.gamma
        assert via_topology.alpha == direct.alpha
        assert via_topology.x == direct.x
        assert via_topology.thetas == direct.thetas


#: 40 + 40 paper flows on this link run at ~80% utilization, so the
#: schedulers' service orders show in the records.
SIM_CAPACITY = 15.0
SIM_SLOTS = 400

#: Chunk-engine digests, keyed
#: ``scheduler-preemptive-packet_size-n_cross-hops``.
CHUNK_DIGESTS = {
    "fifo-True-None-40-1": "c0e59a35ec68377ff36b2d80a44982a88cc1bdee3162a4f389f8da895058641d",
    "fifo-True-None-40-3": "264b77e72be814ba03533eea4ae0d8033abcfab9fe6af80fb181016bb6cb9593",
    "fifo-True-None-0-1": "5256ba6da4e163920c552116c6ce338aa9ac662155b55f00d635a71fe72a078d",
    "fifo-True-None-0-3": "8a1b8c53534eba635863809b68a480874c47f1f47301d82dbfdd31b549e4deb5",
    "fifo-True-1.5-40-1": "55b468b885e829e132b51516cceda5ba902151e1533cf5f8b5fca7e2ccd983b0",
    "fifo-True-1.5-40-3": "d1957cbba0fe7539186f79935735ca3f8e8062757f47f3fcc7937e6fa08d8e73",
    "fifo-True-1.5-0-1": "26d64449b1e73062d4cc887877617750c7088596be4df1464312a32923f2ce7b",
    "fifo-True-1.5-0-3": "bd81de2fc562a5170b9fd434a6b8725ee520c29f5eedc20f69c90766c17e88df",
    "fifo-False-None-40-1": "1ac6572597e80c07180ad117b1d4560bff61067db0ca39e3cf8098872899e028",
    "fifo-False-None-40-3": "bc38682dc4b875f0f6b675b331ebe3d3d85876f792d2e9a936aa1992094f0dfd",
    "fifo-False-None-0-1": "5256ba6da4e163920c552116c6ce338aa9ac662155b55f00d635a71fe72a078d",
    "fifo-False-None-0-3": "5e02a572a695a16053cbb833dc925f43358fbda043ae6175b55a5a8faf423425",
    "fifo-False-1.5-40-1": "55b468b885e829e132b51516cceda5ba902151e1533cf5f8b5fca7e2ccd983b0",
    "fifo-False-1.5-40-3": "d1957cbba0fe7539186f79935735ca3f8e8062757f47f3fcc7937e6fa08d8e73",
    "fifo-False-1.5-0-1": "26d64449b1e73062d4cc887877617750c7088596be4df1464312a32923f2ce7b",
    "fifo-False-1.5-0-3": "bd81de2fc562a5170b9fd434a6b8725ee520c29f5eedc20f69c90766c17e88df",
    "bmux-True-None-40-1": "b37493fdf9332563dc3178041ad4cd5ef1064436ba96263a0b7881c62cbbdbab",
    "bmux-True-None-40-3": "1c5d4ad6a18aa7ad31c4f486b05545f95eca7af82d135a869d6ca4f4dbdaa124",
    "bmux-True-None-0-1": "5256ba6da4e163920c552116c6ce338aa9ac662155b55f00d635a71fe72a078d",
    "bmux-True-None-0-3": "8a1b8c53534eba635863809b68a480874c47f1f47301d82dbfdd31b549e4deb5",
    "bmux-True-1.5-40-1": "91408f93c5fbe530cb6579dcc536bbbaa22b37095d4bedf5b1dda27a5f0d9298",
    "bmux-True-1.5-40-3": "e36da37fd8042ab27e8c10b576718263f7deb2e6f79c57e62fa8e8101b6cb76b",
    "bmux-True-1.5-0-1": "26d64449b1e73062d4cc887877617750c7088596be4df1464312a32923f2ce7b",
    "bmux-True-1.5-0-3": "bd81de2fc562a5170b9fd434a6b8725ee520c29f5eedc20f69c90766c17e88df",
    "bmux-False-None-40-1": "4d7c2d2d0f46884dd04b2c1b84d0eaf59e1125de0285eef291c3f2b302d4a08f",
    "bmux-False-None-40-3": "7c5c94b75b4f33c6a1591c199cd89cb37ffc3b32412a5b1df9e5ce71c252e35b",
    "bmux-False-None-0-1": "5256ba6da4e163920c552116c6ce338aa9ac662155b55f00d635a71fe72a078d",
    "bmux-False-None-0-3": "5e02a572a695a16053cbb833dc925f43358fbda043ae6175b55a5a8faf423425",
    "bmux-False-1.5-40-1": "91408f93c5fbe530cb6579dcc536bbbaa22b37095d4bedf5b1dda27a5f0d9298",
    "bmux-False-1.5-40-3": "e36da37fd8042ab27e8c10b576718263f7deb2e6f79c57e62fa8e8101b6cb76b",
    "bmux-False-1.5-0-1": "26d64449b1e73062d4cc887877617750c7088596be4df1464312a32923f2ce7b",
    "bmux-False-1.5-0-3": "bd81de2fc562a5170b9fd434a6b8725ee520c29f5eedc20f69c90766c17e88df",
    "sp-True-None-40-1": "c4f63beea74c972a7733668efa56cd315d5595fd6e89eb97f9edcfcb1c8cf56e",
    "sp-True-None-40-3": "39f245ff39ef7b399019efe78a82800ccde8d2591aa489879d1e2a016c342d04",
    "sp-True-None-0-1": "5256ba6da4e163920c552116c6ce338aa9ac662155b55f00d635a71fe72a078d",
    "sp-True-None-0-3": "8a1b8c53534eba635863809b68a480874c47f1f47301d82dbfdd31b549e4deb5",
    "sp-True-1.5-40-1": "256ca9f4c802d59ce87a83e6e7abc5bbdc9322355524c044b356e20fb8eb3fa5",
    "sp-True-1.5-40-3": "a386b4addc3763607d4b11e6663db025d8f39988472f3710eacb66c5b8ffe30e",
    "sp-True-1.5-0-1": "26d64449b1e73062d4cc887877617750c7088596be4df1464312a32923f2ce7b",
    "sp-True-1.5-0-3": "bd81de2fc562a5170b9fd434a6b8725ee520c29f5eedc20f69c90766c17e88df",
    "sp-False-None-40-1": "1bb5010f73932f3a0edaa7a9e03700ca317d610e514b3b4e64dd8a2637454c34",
    "sp-False-None-40-3": "a069c7e2fbe7646d67e491c0e947f8eabc85ba94fab8ef8156b7ae645d7442ef",
    "sp-False-None-0-1": "5256ba6da4e163920c552116c6ce338aa9ac662155b55f00d635a71fe72a078d",
    "sp-False-None-0-3": "5e02a572a695a16053cbb833dc925f43358fbda043ae6175b55a5a8faf423425",
    "sp-False-1.5-40-1": "256ca9f4c802d59ce87a83e6e7abc5bbdc9322355524c044b356e20fb8eb3fa5",
    "sp-False-1.5-40-3": "a386b4addc3763607d4b11e6663db025d8f39988472f3710eacb66c5b8ffe30e",
    "sp-False-1.5-0-1": "26d64449b1e73062d4cc887877617750c7088596be4df1464312a32923f2ce7b",
    "sp-False-1.5-0-3": "bd81de2fc562a5170b9fd434a6b8725ee520c29f5eedc20f69c90766c17e88df",
    "edf-True-None-40-1": "55fb0f765342fba0522db2d6838bd7e02b63bcaeaa3bc33ef8eda2c4ec35473f",
    "edf-True-None-40-3": "37a4f2d7f8834c4ec1dd5cdb6900e722e99b012947975ef22cfac6b5c5f0357f",
    "edf-True-None-0-1": "5256ba6da4e163920c552116c6ce338aa9ac662155b55f00d635a71fe72a078d",
    "edf-True-None-0-3": "8a1b8c53534eba635863809b68a480874c47f1f47301d82dbfdd31b549e4deb5",
    "edf-True-1.5-40-1": "49ed31f158640198fe69e451b15ad6e181f788c3de7679e0dd977b7a9eaaeca9",
    "edf-True-1.5-40-3": "7424e43b917fb2b6a785b3cca6f5ff324055b3f8fc23823766f490b4e2fff833",
    "edf-True-1.5-0-1": "26d64449b1e73062d4cc887877617750c7088596be4df1464312a32923f2ce7b",
    "edf-True-1.5-0-3": "bd81de2fc562a5170b9fd434a6b8725ee520c29f5eedc20f69c90766c17e88df",
    "edf-False-None-40-1": "d36ecadbc4ef45f1fcd10308916f485218b8017f03f642d0f16f91c85574fd82",
    "edf-False-None-40-3": "c91f72890f2f92e9c9e5862b7d1b08be27a7193dd11c0efd0bbaa8fdf8db91dc",
    "edf-False-None-0-1": "5256ba6da4e163920c552116c6ce338aa9ac662155b55f00d635a71fe72a078d",
    "edf-False-None-0-3": "5e02a572a695a16053cbb833dc925f43358fbda043ae6175b55a5a8faf423425",
    "edf-False-1.5-40-1": "49ed31f158640198fe69e451b15ad6e181f788c3de7679e0dd977b7a9eaaeca9",
    "edf-False-1.5-40-3": "7424e43b917fb2b6a785b3cca6f5ff324055b3f8fc23823766f490b4e2fff833",
    "edf-False-1.5-0-1": "26d64449b1e73062d4cc887877617750c7088596be4df1464312a32923f2ce7b",
    "edf-False-1.5-0-3": "bd81de2fc562a5170b9fd434a6b8725ee520c29f5eedc20f69c90766c17e88df",
    "gps-True-None-40-1": "cf1baa17d9a8452c0187d01d1afe5e69880960ae7ec9f6370f19c9ac7569fe5c",
    "gps-True-None-40-3": "fb7bea42e2463b98afc7da0dc7f87986bae0da30bfe08505babc06bbd544215f",
    "gps-True-None-0-1": "5256ba6da4e163920c552116c6ce338aa9ac662155b55f00d635a71fe72a078d",
    "gps-True-None-0-3": "8a1b8c53534eba635863809b68a480874c47f1f47301d82dbfdd31b549e4deb5",
    "gps-True-1.5-40-1": "891c48d5d4155f28a68ae12f21b31684e4f09912485d28387a5087eb09507013",
    "gps-True-1.5-40-3": "94c02719eb33679d821b4282f13aa449bd55af86daf3563aa53098140d70d491",
    "gps-True-1.5-0-1": "26d64449b1e73062d4cc887877617750c7088596be4df1464312a32923f2ce7b",
    "gps-True-1.5-0-3": "bd81de2fc562a5170b9fd434a6b8725ee520c29f5eedc20f69c90766c17e88df",
}

#: Vectorized-engine digests, keyed ``scheduler-n_cross-hops``.
VECTORIZED_DIGESTS = {
    "fifo-40-1": "652590995210ad9ecfe961e9733e353c1ca8f9a37a395704185873fe6d5c604d",
    "fifo-40-3": "19ab5415e762e1a0f27a101e5efe1d13180baf8fd1615e2e5e9555fd4d4eb852",
    "fifo-0-1": "5dcca0aa893d0fe67680455c72b4377516841285e251567b77de43aadb8509fa",
    "fifo-0-3": "84154a35e8ce768869657f2f567cdea7636c8953fd1c7a64276999ab66937bc1",
    "bmux-40-1": "ec5dfba534cb605f1c03897a3b570a4313fbaa412ccc0030292509bcbec04920",
    "bmux-40-3": "b30138fd74ae4c7cdc0f47d552763a664f7ed513e8368f41e537a55b17413d4a",
    "bmux-0-1": "5dcca0aa893d0fe67680455c72b4377516841285e251567b77de43aadb8509fa",
    "bmux-0-3": "84154a35e8ce768869657f2f567cdea7636c8953fd1c7a64276999ab66937bc1",
    "sp-40-1": "222016d5c65be45446757eee30d18fdfed94992a80bfaea05f312218485d09dc",
    "sp-40-3": "ac9193122d1e491f07703d07eec95dd90d640ddfced43018c3269eb24a52d6bc",
    "sp-0-1": "5dcca0aa893d0fe67680455c72b4377516841285e251567b77de43aadb8509fa",
    "sp-0-3": "84154a35e8ce768869657f2f567cdea7636c8953fd1c7a64276999ab66937bc1",
    "edf-40-1": "c2081cbb5054b293ffb3282038218c0cb0ad07bf78ad13e8a3ab3e61474cd50f",
    "edf-40-3": "34f853eedab67ea41d04946c7983dd1aeda9df4e5dd77c7e7704ed23578d10a2",
    "edf-0-1": "5dcca0aa893d0fe67680455c72b4377516841285e251567b77de43aadb8509fa",
    "edf-0-3": "84154a35e8ce768869657f2f567cdea7636c8953fd1c7a64276999ab66937bc1",
}

RARE_CHUNK_DIGEST = (
    "5f3fd7f99349e72acbd14af9da7c6f082ea856312cd5935fef0d0523c683fdee"
)


def _digest(*recorders, header: str = "") -> str:
    h = hashlib.sha256(header.encode())
    for recorder in recorders:
        for values in (recorder._delays, recorder._weights):
            part = np.asarray(values, dtype=float)
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(part.tobytes())
    return h.hexdigest()


def _run_digest(engine, scheduler, preemptive, packet_size, n_cross, hops):
    gps = {"gps_weight_through": 3.0, "gps_weight_cross": 1.0}
    config = SimulationConfig(
        traffic=TRAFFIC, n_through=40, n_cross=n_cross, hops=hops,
        capacity=SIM_CAPACITY, slots=SIM_SLOTS, scheduler=scheduler,
        seed=1000 + hops, preemptive=preemptive, packet_size=packet_size,
        engine=engine, **(gps if scheduler == "gps" else {}),
    )
    result = simulate_tandem_mmoo(config)
    return _digest(
        result.route_delays["through"],
        *(result.cross_delays[str(h)] for h in range(hops)),
    )


def _mismatches(expected, run) -> dict:
    """The cases whose digest differs, under each kernel setting."""
    bad = {}
    for kernels in ("compiled", "fallback"):
        with pytest.MonkeyPatch.context() as patch:
            if kernels == "fallback":
                patch.setattr(csampler.KERNEL, "load", lambda: None)
                patch.setattr(ckernels.KERNEL, "load", lambda: None)
            for key, digest in expected.items():
                got = run(key)
                if got != digest:
                    bad[(kernels, key)] = got
    return bad


class TestSimulationEquivalence:
    def test_chunk_rows_byte_identical(self):
        cases = {
            "-".join(map(str, case)): case
            for case in itertools.product(
                ("fifo", "bmux", "sp", "edf", "gps"), (True, False),
                (None, 1.5), (40, 0), (1, 3),
            )
            if not (case[0] == "gps" and not case[1])
        }
        assert set(cases) == set(CHUNK_DIGESTS)
        assert _mismatches(
            CHUNK_DIGESTS, lambda key: _run_digest("chunk", *cases[key])
        ) == {}

    def test_vectorized_rows_byte_identical(self):
        def run(key):
            scheduler, n_cross, hops = key.split("-")
            return _run_digest(
                "vectorized", scheduler, True, None, int(n_cross), int(hops)
            )

        assert _mismatches(VECTORIZED_DIGESTS, run) == {}

    def test_chunk_rare_trial_pinned(self):
        def run(_key):
            config = SimulationConfig(
                traffic=TRAFFIC, n_through=10, n_cross=10, hops=2,
                capacity=2 * 10 * TRAFFIC.mean_rate / 0.75, slots=400,
                scheduler="edf", seed=42, engine="chunk",
            )
            trial = simulate_tandem_mmoo_rare(config, threshold=30.0)
            return _digest(
                trial.result.route_delays["through"],
                header=trial.log_weight.hex() + repr(trial.tau),
            )

        assert _mismatches({"rare": RARE_CHUNK_DIGEST}, run) == {}
