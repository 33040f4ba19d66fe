"""Compile identity: every registered workload compiles to a pinned module.

The build layer's contract is a byte-identical optimized module: the
same instructions, in the same order, under the same SSA and block
names.  This pins the sha256 of `print_module` for all registered
workloads under the ``o1`` and ``o2`` presets at unroll 1, 2, 4 and 8
(96 modules), so a pass rewrite that changes what the pipeline emits
fails here, by workload and preset, before it moves any `RunResult`.

A digest here may move only with a deliberate change to what the
compiler emits; such a change moves `Module.fingerprint` and every
artifact key built on it.
"""

import hashlib

import pytest

from repro.ir.printer import print_module
from repro.passes.pipeline import PipelineSpec
from repro.workloads import get_workload
from repro.workloads.registry import all_workload_names

DIGESTS = {
    ("bfs", "o1", 1): "ad2bbca2da4c8e70091f7142234ba9496e0f73cecd82c6300adb14170049fe5b",
    ("bfs", "o1", 2): "ad2bbca2da4c8e70091f7142234ba9496e0f73cecd82c6300adb14170049fe5b",
    ("bfs", "o1", 4): "ad2bbca2da4c8e70091f7142234ba9496e0f73cecd82c6300adb14170049fe5b",
    ("bfs", "o1", 8): "ad2bbca2da4c8e70091f7142234ba9496e0f73cecd82c6300adb14170049fe5b",
    ("bfs", "o2", 1): "980e58dc69b6f7f112e15355457c14e56bfdbfa4f26ab3ccdc14e4df32504eaf",
    ("bfs", "o2", 2): "980e58dc69b6f7f112e15355457c14e56bfdbfa4f26ab3ccdc14e4df32504eaf",
    ("bfs", "o2", 4): "980e58dc69b6f7f112e15355457c14e56bfdbfa4f26ab3ccdc14e4df32504eaf",
    ("bfs", "o2", 8): "980e58dc69b6f7f112e15355457c14e56bfdbfa4f26ab3ccdc14e4df32504eaf",
    ("conv2d", "o1", 1): "a9298d72fe0fcbebdeaad06632f2b9d85d9535d6efb8d9c09b1f7106e6469b8b",
    ("conv2d", "o1", 2): "65bcf7928dce1a1200bdeecf28355d90ff0eecbc029e849349eec1cf8e15fd6a",
    ("conv2d", "o1", 4): "65bcf7928dce1a1200bdeecf28355d90ff0eecbc029e849349eec1cf8e15fd6a",
    ("conv2d", "o1", 8): "2de3378a0ebb482702624d115e0c0df4cfe7316c418be7fe6936b73b1c76e2cb",
    ("conv2d", "o2", 1): "70dcee90f47bfd99af6b3c25977c6c002b80cce9dd0a1c901a053f8cd54ae29d",
    ("conv2d", "o2", 2): "440cb5b63577e8f70924c1048a018110b90035601c1326e7769b5777aef0d0a6",
    ("conv2d", "o2", 4): "440cb5b63577e8f70924c1048a018110b90035601c1326e7769b5777aef0d0a6",
    ("conv2d", "o2", 8): "ec45b50c55d72f1dd752079ac807723b8c9dd570eecfd7f1b75d586dafdfbaed",
    ("fft", "o1", 1): "451688304b8e2d9e9a43e2f30ee9e7dbdd08e2d76edceeaf2a94777d35a3b414",
    ("fft", "o1", 2): "451688304b8e2d9e9a43e2f30ee9e7dbdd08e2d76edceeaf2a94777d35a3b414",
    ("fft", "o1", 4): "451688304b8e2d9e9a43e2f30ee9e7dbdd08e2d76edceeaf2a94777d35a3b414",
    ("fft", "o1", 8): "451688304b8e2d9e9a43e2f30ee9e7dbdd08e2d76edceeaf2a94777d35a3b414",
    ("fft", "o2", 1): "19626260b98ab563df5df23ea8ae3d169f8676cb6b8d53226277a3443400267d",
    ("fft", "o2", 2): "19626260b98ab563df5df23ea8ae3d169f8676cb6b8d53226277a3443400267d",
    ("fft", "o2", 4): "19626260b98ab563df5df23ea8ae3d169f8676cb6b8d53226277a3443400267d",
    ("fft", "o2", 8): "19626260b98ab563df5df23ea8ae3d169f8676cb6b8d53226277a3443400267d",
    ("gemm", "o1", 1): "97e22777c226c300bc9c7562d9e0828ba72c4983e2505d39f514cd827b765ed2",
    ("gemm", "o1", 2): "86e3f71af837685676304f4ed53f37643395918e4879f0a75ac4dd9e161a9eee",
    ("gemm", "o1", 4): "0de898a15d1095f53f63f920c8bc8b27a34764b8653085ad419d453c28a848ef",
    ("gemm", "o1", 8): "9c5b7eaa0aa26d8f4dd686e2e197d86c6f5b088a24921901be7f1b917812d68d",
    ("gemm", "o2", 1): "0a3e33740d63778ed9a84ad1a973a4d55b39aad364ab5192063f6bc8d6cb1bee",
    ("gemm", "o2", 2): "db46583221ad8107dbd636f86bba4c47fdeb18ca1560312f1e9fd36ef8c544f0",
    ("gemm", "o2", 4): "c11ac1460dfed6c3524206a95c0fe236deca845ac79b4cc5114393d7ae0178a6",
    ("gemm", "o2", 8): "a4038edc6336fdab957c438bae4656791f569151b05fe75d37893affb82f75b9",
    ("gemm_dse", "o1", 1): "6a405bc6c7f2d0c28d714a4dde44c68f2adc04fc63857582a0331e2868d4f5e5",
    ("gemm_dse", "o1", 2): "bd145de84043d87b6d50809e7dc8efbb45341d7c0d41d95c1ec2c36cbb5e058f",
    ("gemm_dse", "o1", 4): "976bfccd17cb1bc906704cb574f8ace5c2dd1c0bffc443be87a1800be35ad99a",
    ("gemm_dse", "o1", 8): "7d5d141b41a9485e384becf220808552b5ea208d133bbac0bd0d0684bfbfd05a",
    ("gemm_dse", "o2", 1): "e3394b60dc4f0732ee85e3b08e62eafc983014ac55a24d2cccccccd465339293",
    ("gemm_dse", "o2", 2): "a1276dd879cee3334637cd05fcadf19b6d78164074b1ec4f4e22e1d42047cd0f",
    ("gemm_dse", "o2", 4): "be0279134ead10dfd575316908cf0e34eaede218c07b91c4159bb79ba9e220ef",
    ("gemm_dse", "o2", 8): "eb5d8972ba0d1daeef12e9b3c8d6fa3ed20a8a1fbdfffd930d436919f16ed415",
    ("md_grid", "o1", 1): "6b474242b00ba8d7aa2914dce834cebe68194304a66a0d236af3937fe5db92e0",
    ("md_grid", "o1", 2): "8b287c2ded51dbeac22388cb944d7fac190f63921318c8f9b77cf640e2bebf3d",
    ("md_grid", "o1", 4): "ac90614a021cd0750fdd49c815da17d32c217842eefcd2dd27ad6d60a659ec92",
    ("md_grid", "o1", 8): "ac90614a021cd0750fdd49c815da17d32c217842eefcd2dd27ad6d60a659ec92",
    ("md_grid", "o2", 1): "e71812bfadda095aa1f06462c83afc7a29f81f4dcd66547f36699e09f4e99f1c",
    ("md_grid", "o2", 2): "3b2fa37e0fb47c5d1750fb3448f351e454c3ca1f8b40c1003c6d53536b1460d8",
    ("md_grid", "o2", 4): "92e7c80c8a93c94efb6ea384121cb19b7e3fceba659ce74c11e234782311ddf4",
    ("md_grid", "o2", 8): "92e7c80c8a93c94efb6ea384121cb19b7e3fceba659ce74c11e234782311ddf4",
    ("md_knn", "o1", 1): "e10c85d55636c689a4a1a25d236a4335b550fb49d57317c70cb6952960579b16",
    ("md_knn", "o1", 2): "eda6c9340bfe4b82f5e4d4aae3596da81887c0343c5831998342c3c77fab43c1",
    ("md_knn", "o1", 4): "287347fd6c3ef4cb1f9d9a07cab9c10a7dd750bccd888f68a47b36de871f8160",
    ("md_knn", "o1", 8): "0f0ff4e33fb32303a84d5fe1bc92e8c49131cedc6dca296d28cfca9f18d450de",
    ("md_knn", "o2", 1): "f97edd9cb3c5e68e243827c57125261c774ab8e9aaca999ea1c0dc60f4d5f91f",
    ("md_knn", "o2", 2): "4cd7c00813d6ac8fc3fc7f3de9fa6a0bb6cb8997afc51b30d068d125bf1e7d91",
    ("md_knn", "o2", 4): "42e5c13aef351b8e44fa8ce8cefc82bf2a4cac3001c0992016bbbc4690e21953",
    ("md_knn", "o2", 8): "63c4d6eeac640e4fa0dc0d70cbdd27effd0dcdf22b4d696185ead764ef89ed1f",
    ("nw", "o1", 1): "70d101fc9404767d356a72dfdd416c7f2995e69101a6e054ed35a44c0bcec583",
    ("nw", "o1", 2): "3d5b75423feef08d42dd6be2aa828d2e2a16ccb37afdb292f5d07ba3a80d4736",
    ("nw", "o1", 4): "ef50c06e4ae44604e009216cb7b661977586ff9a07e89cc8aa46557bc52a383b",
    ("nw", "o1", 8): "0f0c692e80b744b69e773c3d98c65c74bc3f9f374c695e1696cd171bcae3380d",
    ("nw", "o2", 1): "66ce6144d876a4e572927df7c04bb59c48acf9b1b3d337ada19d2d1239f5897e",
    ("nw", "o2", 2): "70bfaff132d2479705ce6ebb2cc7e86bcb887b00137dc3c5320087093bb41a82",
    ("nw", "o2", 4): "8b264a4cd637206441c640ded7c5a765305dfb7f304322bc836f789ab6f47ebe",
    ("nw", "o2", 8): "59f28ec152f615ec5cfebd8d7685ae1c5a9f0ea7502925f93fabce1a4fe3091d",
    ("spmv", "o1", 1): "7efb40fcd85596f23de34c68d9d361aacfe574695bfcff3b927307b5424b9f44",
    ("spmv", "o1", 2): "7efb40fcd85596f23de34c68d9d361aacfe574695bfcff3b927307b5424b9f44",
    ("spmv", "o1", 4): "7efb40fcd85596f23de34c68d9d361aacfe574695bfcff3b927307b5424b9f44",
    ("spmv", "o1", 8): "7efb40fcd85596f23de34c68d9d361aacfe574695bfcff3b927307b5424b9f44",
    ("spmv", "o2", 1): "29ac659460a996c893b056aca4079c2af163d33cdf2ed272bd3e7f353cbaec64",
    ("spmv", "o2", 2): "29ac659460a996c893b056aca4079c2af163d33cdf2ed272bd3e7f353cbaec64",
    ("spmv", "o2", 4): "29ac659460a996c893b056aca4079c2af163d33cdf2ed272bd3e7f353cbaec64",
    ("spmv", "o2", 8): "29ac659460a996c893b056aca4079c2af163d33cdf2ed272bd3e7f353cbaec64",
    ("spmv_shift", "o1", 1): "f12265a45efdfa5ede5bab45659d4ad1a4e84b15fd6c366b37a7a7155790f3bd",
    ("spmv_shift", "o1", 2): "f12265a45efdfa5ede5bab45659d4ad1a4e84b15fd6c366b37a7a7155790f3bd",
    ("spmv_shift", "o1", 4): "f12265a45efdfa5ede5bab45659d4ad1a4e84b15fd6c366b37a7a7155790f3bd",
    ("spmv_shift", "o1", 8): "f12265a45efdfa5ede5bab45659d4ad1a4e84b15fd6c366b37a7a7155790f3bd",
    ("spmv_shift", "o2", 1): "034146ae49d39f947dd811e24ef07dd6aba8f68bd2ea13f207e33449d770c7ed",
    ("spmv_shift", "o2", 2): "034146ae49d39f947dd811e24ef07dd6aba8f68bd2ea13f207e33449d770c7ed",
    ("spmv_shift", "o2", 4): "034146ae49d39f947dd811e24ef07dd6aba8f68bd2ea13f207e33449d770c7ed",
    ("spmv_shift", "o2", 8): "034146ae49d39f947dd811e24ef07dd6aba8f68bd2ea13f207e33449d770c7ed",
    ("stencil2d", "o1", 1): "d589891134631b42b3d693d6623919389061b9c36b8bcdaad9612569dd6313ff",
    ("stencil2d", "o1", 2): "d589891134631b42b3d693d6623919389061b9c36b8bcdaad9612569dd6313ff",
    ("stencil2d", "o1", 4): "430d38f74a19583ad6eb84e352fa31f68eb0c659e0e567a9c74c1410001f369a",
    ("stencil2d", "o1", 8): "610aa1aeb65e4fa757e8aa71b7de4f245ec46e40e855e5c12d3e093067db3d01",
    ("stencil2d", "o2", 1): "3c5a991f92180a72e466e9c798c8b3f3fc8fb96318602b81a0a520ecf4432c90",
    ("stencil2d", "o2", 2): "3c5a991f92180a72e466e9c798c8b3f3fc8fb96318602b81a0a520ecf4432c90",
    ("stencil2d", "o2", 4): "6b94072f296fb43bb8a1ba73faa49a22b94321df3c220f8adf69e8387ae8e5ec",
    ("stencil2d", "o2", 8): "6f1ff973affb51c44a9b97214d79b56a97e8e14236adf1824e7f1e0b7ec6549f",
    ("stencil3d", "o1", 1): "201bd46420794a24c5cd867473a2d5a381e1fa3a502ea9a91c03e16d2af5af01",
    ("stencil3d", "o1", 2): "0613483765fdb6654b8ce1b76d149a9a28448118d72ee65d87ee0f484909cd9c",
    ("stencil3d", "o1", 4): "f7c6407a2a1a740139e7788fbbdeaedd8816be94824d4f5ac7db7e1358634f26",
    ("stencil3d", "o1", 8): "39e14cd85d9a1312b906fd456f7d393db6fe792abcc9b4f6487798f1dcc11fff",
    ("stencil3d", "o2", 1): "8da2f569337956242e56c3c6fd749ee39667652ba31f27c18ccbe7522a3fa47d",
    ("stencil3d", "o2", 2): "41e36f157a96cb1502468f0b26837be3f54f8e671dfc5c9ebb4f70536a657630",
    ("stencil3d", "o2", 4): "fa41f37a4b40498f518d6963c98e8aa6caa3298db174df36d5fb649cd961c254",
    ("stencil3d", "o2", 8): "3b74a15c681d70a3f5e5100d11ff4c778cbc4c3ca0efa2a05ee45eece6cac003",
}


def test_every_registered_workload_is_pinned():
    pinned = {name for name, __, __ in DIGESTS}
    assert pinned == set(all_workload_names())
    assert len(DIGESTS) == 96


@pytest.mark.parametrize("name,level,factor", sorted(DIGESTS))
def test_module_digest(name, level, factor):
    spec = PipelineSpec.standard(opt_level=int(level[1]), unroll_factor=factor)
    module = get_workload(name).build(pipeline=spec).module
    digest = hashlib.sha256(print_module(module).encode()).hexdigest()
    assert digest == DIGESTS[(name, level, factor)]
