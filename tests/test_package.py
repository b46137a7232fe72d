import types

import lpldpc
from lpldpc import channel, lpdec, pseudo, simcli, tanner, witness


def test_package_exports_each_modules_all():
    public = {name for name, value in vars(lpldpc).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    modules = (channel, lpdec, pseudo, simcli, tanner, witness)
    assert public == set().union(*(m.__all__ for m in modules))
    assert all(getattr(lpldpc, name) is getattr(m, name) for m in modules for name in m.__all__)
