import ast
import inspect

import hsifusion


def test_every_exported_name_resolves():
    assert len(set(hsifusion.__all__)) == len(hsifusion.__all__)
    assert [n for n in hsifusion.__all__ if not hasattr(hsifusion, n)] == []


def test_every_public_name_is_exported():
    tree = ast.parse(inspect.getsource(hsifusion))
    bound = {alias.asname or alias.name for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    bound |= {target.id for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets if isinstance(target, ast.Name)}
    assert set(hsifusion.__all__) == {n for n in bound if not n.startswith("_")}
