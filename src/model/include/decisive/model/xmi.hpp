// XMI-style XML persistence for models: a flat list of <object> elements with
// id/class plus attribute and reference children. Round-trips any model whose
// classes come from a single MetaPackage.
#pragma once

#include <string>

#include "decisive/model/repository.hpp"

namespace decisive::model {

/// Serialises every object in the repository to XMI-style XML text.
std::string save_xmi(const FullLoadRepository& repo, const MetaPackage& package);

/// Writes the serialisation to a file; throws IoError.
void save_xmi_file(const std::string& path, const FullLoadRepository& repo,
                   const MetaPackage& package);

/// Parses XMI-style text into the repository (appending to existing content).
/// Object ids in the file are remapped to fresh repository ids; references
/// are resolved after all objects exist. Throws ParseError/ModelError; the
/// objects read before the fault stay in the repository.
void load_xmi(FullLoadRepository& repo, const MetaPackage& package, std::string_view text);

/// Loads an XMI file; throws IoError/ParseError/ModelError. The file is
/// read through xml::parse_children's window, never held whole: the same
/// objects, ids, references and errors as load_xmi on the file's text.
void load_xmi_file(FullLoadRepository& repo, const MetaPackage& package,
                   const std::string& path);

}  // namespace decisive::model
