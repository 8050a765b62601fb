// XMI-style XML persistence for models: a flat list of <object> elements with
// id/class plus attribute and reference children. Round-trips any model whose
// classes come from a single MetaPackage.
#pragma once

#include <istream>
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

/// load_xmi over a stream, read through an xml::Reader window of about
/// `window` bytes, never held whole: the same objects, ids, references and
/// errors as load_xmi on the stream's text.
void load_xmi(FullLoadRepository& repo, const MetaPackage& package, std::istream& in,
              size_t window = size_t{1} << 16);

/// Loads an XMI file through the stream load's default window; throws
/// IoError/ParseError/ModelError.
void load_xmi_file(FullLoadRepository& repo, const MetaPackage& package,
                   const std::string& path);

}  // namespace decisive::model
