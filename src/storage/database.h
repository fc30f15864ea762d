// Database: named relations (the parameter relations {Q_i} of operators).

#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/relation.h"

namespace linrec {

/// A map from predicate name to Relation.
class Database {
 public:
  /// Creates or returns the relation `name` with the given arity.
  /// If the relation exists with a different arity, asserts (programming
  /// error); use GetChecked for a Status-returning variant.
  Relation& GetOrCreate(const std::string& name, std::size_t arity);

  /// Returns nullptr if `name` is absent.
  const Relation* Find(const std::string& name) const;
  Relation* FindMutable(const std::string& name);

  /// Status-returning lookup with an arity check.
  Result<const Relation*> GetChecked(const std::string& name,
                                     std::size_t arity) const;

  std::size_t relation_count() const { return relations_.size(); }

  /// Names in sorted order (deterministic iteration).
  std::vector<std::string> Names() const;

 private:
  std::unordered_map<std::string, Relation> relations_;
};

std::ostream& operator<<(std::ostream& os, const Database& db);

}  // namespace linrec
